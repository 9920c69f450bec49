package core_test

import (
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/nfsproto"
	"repro/internal/rpcsim"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/vfs"
)

func newBed(t *testing.T, srv nfssim.ServerKind, cfg core.Config) *nfssim.Testbed {
	t.Helper()
	return nfssim.NewTestbed(nfssim.Options{Server: srv, Client: cfg, Seed: 3})
}

// serverDirty returns the linux server's unstable bytes: what it
// acknowledged less what its writeback put on disk (no crash drops any).
func serverDirty(tb *nfssim.Testbed) int64 {
	return tb.Server.BytesWritten - tb.Server.Backend().(*server.LinuxServer).Flushed
}

// fileRecord returns the server's record of fh, or a blank one if the
// server acked none of its bytes.
func fileRecord(tb *nfssim.Testbed, fh nfsproto.FileHandle) *server.Inode {
	for h, ino := range tb.Server.Names().Written() {
		if h == fh {
			return ino
		}
	}
	return new(server.Inode)
}

func runMB(t *testing.T, tb *nfssim.Testbed, mb int) *bonnie.Result {
	t.Helper()
	return bonnie.RunWorkload(tb.Sim, "t", tb.Machines[0].OpenSet(), bonnie.Config{
		FileSize:  int64(mb) << 20,
		TimeLimit: 20 * time.Minute,
	})
}

func TestPolicyStrings(t *testing.T) {
	if core.FlushLimits24.String() != "2.4.4-limits" || core.FlushCacheAll.String() != "cache-all" {
		t.Fatal("FlushPolicy strings")
	}
	if core.IndexLinearList.String() != "list" || core.IndexHashTable.String() != "hash" {
		t.Fatal("IndexPolicy strings")
	}
}

func TestConfigPresetsDiffer(t *testing.T) {
	stock := core.Stock244Config()
	enh := core.EnhancedConfig()
	if stock.FlushPolicy != core.FlushLimits24 || stock.IndexPolicy != core.IndexLinearList ||
		stock.LockPolicy != rpcsim.HoldBKLAcrossSend {
		t.Fatalf("stock config wrong: %+v", stock)
	}
	if enh.FlushPolicy != core.FlushCacheAll || enh.IndexPolicy != core.IndexHashTable ||
		enh.LockPolicy != rpcsim.ReleaseBKLForSend {
		t.Fatalf("enhanced config wrong: %+v", enh)
	}
	if core.NoLimitsConfig().IndexPolicy != core.IndexLinearList {
		t.Fatal("NoLimitsConfig should keep the linear list")
	}
	if core.HashConfig().LockPolicy != rpcsim.HoldBKLAcrossSend {
		t.Fatal("HashConfig should keep the BKL")
	}
}

func TestBadWSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := core.Stock244Config()
	cfg.WSize = 1000 // not a page multiple
	newBed(t, nfssim.ServerFiler, cfg)
}

// Every byte the benchmark writes must arrive at the server exactly once,
// contiguous from zero — across all four client configurations.
func TestDataIntegrityAllConfigs(t *testing.T) {
	configs := map[string]core.Config{
		"stock":    core.Stock244Config(),
		"nolimits": core.NoLimitsConfig(),
		"hash":     core.HashConfig(),
		"enhanced": core.EnhancedConfig(),
	}
	const size = 4 << 20
	for name, cfg := range configs {
		tb := newBed(t, nfssim.ServerFiler, cfg)
		f := tb.Machines[0].Client.Open()
		fh := f.Inode().FH
		done := false
		tb.Sim.Go("w", func(p *sim.Proc) {
			for i := 0; i < size/8192; i++ {
				f.WriteAt(p, int64(i)*8192, 8192)
			}
			f.Close(p)
			done = true
		})
		tb.Sim.Run(time.Minute)
		if !done {
			t.Fatalf("%s: run did not finish", name)
		}
		cov := fileRecord(tb, fh).Received()
		if cov.Total() != size || !cov.Contains(0, size) {
			t.Fatalf("%s: server coverage %v, want [0,%d)", name, cov, size)
		}
		if tb.Machines[0].Client.MountRequests() != 0 {
			t.Fatalf("%s: %d requests outstanding after close", name, tb.Machines[0].Client.MountRequests())
		}
		if tb.Machines[0].Cache.Usage() != 0 && cfg.FlushPolicy == core.FlushCacheAll {
			t.Fatalf("%s: page cache not drained: %d", name, tb.Machines[0].Cache.Usage())
		}
	}
}

// §3.3: the stock client's write path forces a whole-inode flush every
// MAX_REQUEST_SOFT/2 writes, producing periodic latency spikes >10x the
// median, roughly every 85-100 calls.
func TestStockClientPeriodicSpikes(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.Stock244Config())
	res := runMB(t, tb, 20)
	cutoff := time.Millisecond
	spikes := res.Trace.CountAbove(cutoff)
	if spikes < 10 {
		t.Fatalf("only %d spikes > 1ms", spikes)
	}
	period := res.Trace.SpikePeriod(cutoff)
	if period < 80 || period > 105 {
		t.Fatalf("spike period = %.1f calls, want ~96 (soft limit 192 / 2 pages)", period)
	}
	if tb.Machines[0].Client.SoftFlushes == 0 {
		t.Fatal("no soft-limit flushes recorded")
	}
	// Spikes should be whole-queue drains: > 10 ms each at the filer's
	// ~42 MB/s ingest.
	sum := res.Trace.SummaryExcluding(cutoff)
	all := res.Trace.Summary()
	if all.Max < 10*time.Millisecond {
		t.Fatalf("max latency %v, want > 10ms spike", all.Max)
	}
	// Mean inflation: paper reports 3.45x; accept 2-6x.
	ratio := float64(all.Mean) / float64(sum.Mean)
	if ratio < 2 || ratio > 6 {
		t.Fatalf("spike mean-inflation ratio = %.2f, want 2-6", ratio)
	}
}

// §3.3 fix 1: removing the limits eliminates the spikes...
func TestNoLimitsRemovesSpikes(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.NoLimitsConfig())
	res := runMB(t, tb, 20)
	if n := res.Trace.CountAbove(5 * time.Millisecond); n != 0 {
		t.Fatalf("%d multi-ms spikes remain without limits", n)
	}
	if tb.Machines[0].Client.SoftFlushes != 0 {
		t.Fatal("soft flushes recorded with cache-all policy")
	}
}

// ...but §3.4: latency then grows with the backlog because of the O(n)
// list scans (Figure 3), and the hash table flattens it (Figure 4).
func TestLinearListGrowsHashStaysFlat(t *testing.T) {
	list := runMB(t, newBed(t, nfssim.ServerFiler, core.NoLimitsConfig()), 60)
	hash := runMB(t, newBed(t, nfssim.ServerFiler, core.HashConfig()), 60)

	if s := list.Trace.Slope(); s <= 5 {
		t.Fatalf("linear-list latency slope = %.1f ns/call, want clearly positive", s)
	}
	hs := hash.Trace.Slope()
	if hs > 5 || hs < -5 {
		t.Fatalf("hash latency slope = %.1f ns/call, want ~flat", hs)
	}
	lm := list.Trace.Summary().Mean
	hm := hash.Trace.Summary().Mean
	if lm < 3*hm {
		t.Fatalf("list mean %v should be >= 3x hash mean %v by 60 MB", lm, hm)
	}
	// Figure 4 vs Figure 1: >3x memory write throughput improvement.
	if hash.WriteMBps() < 3*29 {
		t.Fatalf("hash write throughput %.1f MB/s, want > ~87 (3x stock)", hash.WriteMBps())
	}
}

// §3.4: with the hash table, quarter-over-quarter latency stays flat.
func TestHashLatencyFlatAcrossRun(t *testing.T) {
	res := runMB(t, newBed(t, nfssim.ServerFiler, core.HashConfig()), 60)
	n := res.Trace.Len()
	firstQ := res.Trace.Samples()[:n/4]
	lastQ := res.Trace.Samples()[3*n/4:]
	var m1, m4 time.Duration
	for _, v := range firstQ {
		m1 += v
	}
	for _, v := range lastQ {
		m4 += v
	}
	m1 /= time.Duration(len(firstQ))
	m4 /= time.Duration(len(lastQ))
	if m4 > m1*11/10 {
		t.Fatalf("last-quarter mean %v >10%% above first-quarter %v", m4, m1)
	}
}

// §3.5 Table 1: removing the BKL around sock_sendmsg improves memory
// write throughput against both servers, more so against the faster
// filer, and mean latency drops while minimum latency barely moves.
func TestLockRemovalTable1Shape(t *testing.T) {
	run := func(srv nfssim.ServerKind, cfg core.Config) *bonnie.Result {
		return runMB(t, newBed(t, srv, cfg), 5)
	}
	filerLock := run(nfssim.ServerFiler, core.HashConfig())
	filerNo := run(nfssim.ServerFiler, core.EnhancedConfig())
	linuxLock := run(nfssim.ServerLinux, core.HashConfig())
	linuxNo := run(nfssim.ServerLinux, core.EnhancedConfig())

	if filerNo.WriteMBps() <= filerLock.WriteMBps() {
		t.Fatalf("filer: no-lock %.1f <= lock %.1f MB/s", filerNo.WriteMBps(), filerLock.WriteMBps())
	}
	if linuxNo.WriteMBps() <= linuxLock.WriteMBps() {
		t.Fatalf("linux: no-lock %.1f <= lock %.1f MB/s", linuxNo.WriteMBps(), linuxLock.WriteMBps())
	}
	// The faster server suffers more from the lock (Table 1: filer +22%,
	// Linux +6.5%).
	fGain := filerNo.WriteMBps() / filerLock.WriteMBps()
	lGain := linuxNo.WriteMBps() / linuxLock.WriteMBps()
	if fGain <= lGain {
		t.Fatalf("filer gain %.3f <= linux gain %.3f; faster server should gain more", fGain, lGain)
	}
	// With the lock held, the faster server yields *slower* memory writes.
	if filerLock.WriteMBps() >= linuxLock.WriteMBps() {
		t.Fatalf("with BKL, filer memory writes %.1f should be slower than linux %.1f",
			filerLock.WriteMBps(), linuxLock.WriteMBps())
	}
	// Minimum latency barely changes (±20%): "the latency variation is
	// not a code path issue".
	minLock := filerLock.Trace.Summary().Min
	minNo := filerNo.Trace.Summary().Min
	lo, hi := minNo*8/10, minNo*12/10
	if minLock < lo || minLock > hi {
		t.Fatalf("min latency moved: lock %v vs no-lock %v", minLock, minNo)
	}
	// Max latency (jitter) drops.
	if filerNo.Trace.Summary().Max >= filerLock.Trace.Summary().Max {
		t.Fatalf("no-lock max %v >= lock max %v", filerNo.Trace.Summary().Max, filerLock.Trace.Summary().Max)
	}
}

// §3.5: "The benchmark writes to memory even faster with this server" —
// a 100 Mb/s server leaves the writer less impeded than the gigabit
// filer, on the BKL client.
func TestSlowServerFasterMemoryWrites(t *testing.T) {
	slow := runMB(t, newBed(t, nfssim.ServerSlow100, core.HashConfig()), 5)
	filer := runMB(t, newBed(t, nfssim.ServerFiler, core.HashConfig()), 5)
	if slow.WriteMBps() <= filer.WriteMBps() {
		t.Fatalf("slow-server memory writes %.1f <= filer %.1f MB/s",
			slow.WriteMBps(), filer.WriteMBps())
	}
}

// §3.3: MAX_REQUEST_HARD blocks writers once the per-mount count exceeds
// 256 — reachable with two files, each below the soft limit.
func TestHardLimitBlocksAcrossFiles(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.Stock244Config())
	done := 0
	for i := 0; i < 2; i++ {
		f := tb.Machines[0].Client.Open()
		tb.Sim.Go("w", func(p *sim.Proc) {
			// 180 pages each: under soft (192), joint 360 > hard (256).
			for j := 0; j < 90; j++ {
				f.WriteAt(p, int64(j)*8192, 8192)
			}
			f.Close(p)
			done++
		})
	}
	tb.Sim.Run(time.Minute)
	if done != 2 {
		t.Fatalf("writers finished: %d of 2 (deadlock?)", done)
	}
	if tb.Machines[0].Client.HardBlocks == 0 {
		t.Fatal("hard limit never engaged")
	}
	if tb.Machines[0].Client.SoftFlushes != 0 {
		t.Fatal("soft limit should not have fired (per-inode counts stayed low)")
	}
}

// Memory pressure, not request counts, throttles the enhanced client: a
// file larger than the page-cache budget must engage mm throttling.
func TestEnhancedClientThrottlesOnMemory(t *testing.T) {
	tb := nfssim.NewTestbed(nfssim.Options{
		Server:     nfssim.ServerFiler,
		Client:     core.EnhancedConfig(),
		CacheLimit: 16 << 20, // tiny budget so the test stays fast
	})
	res := runMB(t, tb, 64)
	if tb.Machines[0].Cache.ThrottleEvents == 0 {
		t.Fatal("writer never throttled despite 4x overcommit")
	}
	if tb.Machines[0].Cache.PeakUsage > 16<<20 {
		t.Fatalf("page cache exceeded its budget: %d", tb.Machines[0].Cache.PeakUsage)
	}
	// Once throttled, write throughput approaches the server rate, far
	// below memory speed.
	if res.WriteMBps() > 80 {
		t.Fatalf("throttled throughput %.1f MB/s, should be near server ingest", res.WriteMBps())
	}
}

// Close must COMMIT on the Linux server (UNSTABLE replies) and must not
// need to on the filer (FILE_SYNC replies) — §3.5's "they don't require
// an additional COMMIT RPC".
func TestCommitOnlyForUnstableServers(t *testing.T) {
	linux := newBed(t, nfssim.ServerLinux, core.EnhancedConfig())
	runMB(t, linux, 2)
	if linux.Server.Commits == 0 {
		t.Fatal("no COMMIT sent to the Linux server")
	}
	filer := newBed(t, nfssim.ServerFiler, core.EnhancedConfig())
	runMB(t, filer, 2)
	if filer.Server.Commits != 0 {
		t.Fatalf("%d COMMITs sent to the filer", filer.Server.Commits)
	}
}

// Rewriting the same page must coalesce client-side into one request (the
// client "usually caches only a single write request per page").
func TestSamePageWritesCoalesce(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.HashConfig())
	f := tb.Machines[0].Client.Open()
	tb.Sim.Go("w", func(p *sim.Proc) {
		// Two 2 KB writes into the same page.
		f.WriteAt(p, 0, 2048)
		f.WriteAt(p, 2048, 2048)
	})
	tb.Sim.Run(time.Second)
	if got := tb.Machines[0].Client.MountRequests(); got != 1 {
		t.Fatalf("mount requests = %d, want 1 (same-page coalescing)", got)
	}
	if f.Size() != 4096 {
		t.Fatalf("size = %d", f.Size())
	}
}

// Double close is a no-op; write-after-close panics.
func TestFileLifecycle(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.EnhancedConfig())
	f := tb.Machines[0].Client.Open()
	panicked := false
	tb.Sim.Go("w", func(p *sim.Proc) {
		f.WriteAt(p, 0, 8192)
		f.Close(p)
		f.Close(p) // no-op
		func() {
			defer func() { panicked = recover() != nil }()
			f.WriteAt(p, 8192, 1)
		}()
	})
	tb.Sim.Run(time.Minute)
	if !panicked {
		t.Fatal("write after close did not panic")
	}
}

// A server reboot that only the COMMIT reveals: every WRITE was acked
// UNSTABLE under the old verifier, the COMMIT reaches the restarted
// server and returns the new one, and the client re-queues every acked
// byte while another process's rewrite of one of those pages is still
// queued. The re-queue widens that request instead of adding a second
// one for the page, and the second COMMIT leaves the file stable.
func TestCommitRevealsReboot(t *testing.T) {
	const pages, size = 4, 4 * 4096
	tb := newBed(t, nfssim.ServerLinux, core.EnhancedConfig())
	c := tb.Machines[0].Client
	f := tb.Machines[0].Client.Open()
	const crashAt = time.Second
	tb.Sim.At(crashAt, func() {
		tb.Server.Crash()
		tb.Sim.After(10*time.Millisecond, tb.Server.Restart)
	})
	closed := false
	tb.Sim.Go("writer", func(p *sim.Proc) {
		f.WriteAt(p, 0, size)
		f.WriteBack(p)
		if c.RPCs(nfsproto.ProcWrite) == 0 || c.RPCs(nfsproto.ProcCommit) != 0 || tb.Sim.Now() >= crashAt {
			t.Errorf("write-back: %d WRITEs and %d COMMITs by %v", c.RPCs(nfsproto.ProcWrite), c.RPCs(nfsproto.ProcCommit), tb.Sim.Now())
		}
		p.Sleep(crashAt + time.Millisecond - tb.Sim.Now())
		// The COMMIT dies at the downed server; its retransmission reaches
		// the restarted one.
		f.Close(p)
		closed = true
	})
	tb.Sim.Go("rewriter", func(p *sim.Proc) {
		p.Sleep(crashAt + 500*time.Millisecond)
		f.WriteAt(p, 4096+1024, 1024) // part of an acked page
		if got := c.MountRequests(); got != 1 {
			t.Errorf("mount requests = %d after the rewrite, want 1 queued", got)
		}
	})
	tb.Sim.Run(time.Minute)
	if !closed {
		t.Fatal("Close did not return")
	}
	if c.VerfChanges != 1 || c.RewrittenBytes != size {
		t.Fatalf("verifier changes %d, rewritten %d bytes; want 1 and %d", c.VerfChanges, c.RewrittenBytes, size)
	}
	// Widened, not duplicated: the reboot re-sends each page once.
	if c.PagesSent != 2*pages {
		t.Fatalf("pages sent = %d, want %d (write-back plus one rewrite each)", c.PagesSent, 2*pages)
	}
	if c.RPCs(nfsproto.ProcCommit) != 2 || c.MountRequests() != 0 {
		t.Fatalf("%d COMMITs, %d requests left; want 2 and 0", c.RPCs(nfsproto.ProcCommit), c.MountRequests())
	}
	if cov := fileRecord(tb, f.Inode().FH).Stable(); !cov.Contains(0, size) {
		t.Fatalf("stable coverage %v does not span the %d-byte file", cov, size)
	}
}

// Flush is durable: after Flush returns, the linux server must have no
// dirty data for the file.
func TestFlushDurability(t *testing.T) {
	tb := newBed(t, nfssim.ServerLinux, core.EnhancedConfig())
	f := tb.Machines[0].Client.Open()
	var dirtyAfter int64 = -1
	tb.Sim.Go("w", func(p *sim.Proc) {
		for i := 0; i < 128; i++ {
			f.WriteAt(p, int64(i)*8192, 8192)
		}
		f.Flush(p)
		dirtyAfter = serverDirty(tb)
	})
	tb.Sim.Run(time.Minute)
	if dirtyAfter != 0 {
		t.Fatalf("server dirty = %d after Flush", dirtyAfter)
	}
}

// The profiler must show the §3.4 signature during a linear-list run:
// nfs_find_request among the top CPU consumers.
func TestProfilerShowsFindRequestHotspot(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.NoLimitsConfig())
	runMB(t, tb, 40)
	prof := tb.Sim.Profiler()
	find := prof.Total("nfs_find_request") + prof.Total("nfs_update_request(scan)")
	if find == 0 {
		t.Fatal("no scan time profiled")
	}
	top := prof.Top(4)
	inTop := false
	for _, e := range top {
		if e.Label == "nfs_find_request" || e.Label == "nfs_update_request(scan)" {
			inTop = true
		}
	}
	if !inTop {
		t.Fatalf("list scans not in top-4 CPU consumers: %+v", top)
	}
}

// §3.5: the BKL wait must be dominated by sock_sendmsg (~90% in the
// paper) during an enhanced-but-locked run.
func TestBKLWaitDominatedBySockSendmsg(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.HashConfig())
	runMB(t, tb, 10)
	wb := tb.Machines[0].BKL.WaitBreakdown()
	var total, send time.Duration
	for label, v := range wb {
		total += v
		if label == "sock_sendmsg" {
			send += v
		}
	}
	if total == 0 {
		t.Fatal("no BKL contention at all")
	}
	if frac := float64(send) / float64(total); frac < 0.6 {
		t.Fatalf("sock_sendmsg fraction of BKL wait = %.2f, want dominant", frac)
	}
}

// Determinism: identical seeds must produce identical traces.
func TestRunDeterminism(t *testing.T) {
	run := func() time.Duration {
		tb := newBed(t, nfssim.ServerFiler, core.Stock244Config())
		res := runMB(t, tb, 5)
		return res.CloseElapsed
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// Uniprocessor ablation: on 1 CPU the flusher steals cycles from the
// writer, so the no-lock enhancement helps less than on SMP.
func TestSMPvsUP(t *testing.T) {
	run := func(cpus int, cfg core.Config) float64 {
		tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler, Client: cfg, ClientCPUs: cpus})
		res := bonnie.RunWorkload(tb.Sim, "t", tb.Machines[0].OpenSet(), bonnie.Config{FileSize: 5 << 20, TimeLimit: time.Minute})
		return res.WriteMBps()
	}
	smp := run(2, core.EnhancedConfig())
	up := run(1, core.EnhancedConfig())
	if smp <= up {
		t.Fatalf("SMP write throughput %.1f <= UP %.1f; second CPU should help", smp, up)
	}
}

// §3.6: "applications regain control sooner after they flush or close a
// file when writing to a faster server" — compare close-inclusive
// throughput on sync-heavy workloads.
func TestFasterServerWinsWhenFlushing(t *testing.T) {
	run := func(srv nfssim.ServerKind) float64 {
		tb := newBed(t, srv, core.EnhancedConfig())
		res := runMB(t, tb, 20)
		return res.CloseMBps()
	}
	filer := run(nfssim.ServerFiler)
	linux := run(nfssim.ServerLinux)
	if filer <= linux {
		t.Fatalf("close-inclusive throughput: filer %.1f <= linux %.1f MB/s", filer, linux)
	}
}

// Incompatible sub-page writes force a flush before the new request (the
// paper's write-ordering example in §3.4).
func TestIncompatibleSubPageWriteFlushes(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.HashConfig())
	f := tb.Machines[0].Client.Open()
	fh := f.Inode().FH
	tb.Sim.Go("w", func(p *sim.Proc) {
		f.WriteAt(p, 0, 100)    // bytes [0,100) of page 0
		f.WriteAt(p, 3000, 100) // disjoint range in the same page
		f.Close(p)
	})
	tb.Sim.Run(time.Minute)
	cov := fileRecord(tb, fh).Received()
	if !cov.Contains(0, 100) || !cov.Contains(3000, 3100) {
		t.Fatalf("coverage = %v", cov)
	}
	// The hole must NOT be covered: the client never invented bytes.
	if cov.Contains(100, 3000) {
		t.Fatalf("server received bytes the app never wrote: %v", cov)
	}
}

// Two concurrent writers on separate files: aggregate improves without
// the BKL (§3.5's concurrency argument).
func TestConcurrentWritersBenefitFromLockFix(t *testing.T) {
	run := func(cfg core.Config) float64 {
		tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler, Client: cfg})
		res := bonnie.RunConcurrentWorkload(tb.Sim, "c", func(int) vfs.OpenSet { return tb.Machines[0].OpenSet() }, 2, bonnie.Config{
			FileSize: 5 << 20, TimeLimit: 10 * time.Minute, SkipFlushClose: true,
		})
		return res.AggregateMBps()
	}
	lock := run(core.HashConfig())
	nolock := run(core.EnhancedConfig())
	if nolock <= lock {
		t.Fatalf("aggregate: no-lock %.1f <= lock %.1f MB/s", nolock, lock)
	}
}

// Regression for the FlushCacheAll dirty-accounting leak: rewriting one
// page must not inflate PageCache.Usage(). Before the fix, every
// WriteAt charged the full span even when commitPage merely updated the
// existing request, so 10,000 rewrites of one page accounted ~40 MB of
// phantom dirty memory that no writeback would ever credit back — until
// the writer throttled forever.
func TestOverwriteDirtyAccountingBounded(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.EnhancedConfig())
	f := tb.Machines[0].Client.Open()
	const rewrites = 10_000
	done := false
	tb.Sim.Go("w", func(p *sim.Proc) {
		for i := 0; i < rewrites; i++ {
			f.WriteAt(p, 0, vfs.PageSize)
		}
		// Bounded by one dirty page plus whatever writeback is in
		// flight at this instant.
		if got := tb.Machines[0].Cache.Usage(); got > vfs.PageSize+tb.Machines[0].Cache.Writeback() {
			t.Errorf("usage %d exceeds one page + writeback %d", got, tb.Machines[0].Cache.Writeback())
		}
		f.Close(p)
		done = true
	})
	tb.Sim.Run(20 * time.Minute)
	if !done {
		t.Fatal("run did not finish (writer throttled forever?)")
	}
	// The run never holds more than the one page dirty plus the RPCs the
	// flush pushed out; with the leak, peak usage was ~rewrites pages.
	maxInflight := int64(core.EnhancedConfig().WSize * 16) // full slot table
	if tb.Machines[0].Cache.PeakUsage > int64(vfs.PageSize)+maxInflight {
		t.Fatalf("peak usage %d, want <= one page + in-flight writeback %d",
			tb.Machines[0].Cache.PeakUsage, int64(vfs.PageSize)+maxInflight)
	}
	if tb.Machines[0].Cache.ThrottleEvents != 0 {
		t.Fatalf("%d throttle events while rewriting a single page", tb.Machines[0].Cache.ThrottleEvents)
	}
	if tb.Machines[0].Cache.Usage() != 0 {
		t.Fatalf("cache not drained after close: %d", tb.Machines[0].Cache.Usage())
	}
}

// Extending a cached request must charge only the net-new bytes: two
// adjacent 2 KB writes into one page dirty 4 KB total, not 6 KB.
func TestPartialPageExtensionChargesNetNew(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.EnhancedConfig())
	f := tb.Machines[0].Client.Open()
	tb.Sim.Go("w", func(p *sim.Proc) {
		f.WriteAt(p, 0, 2048)
		if got := tb.Machines[0].Cache.Usage(); got != 2048 {
			t.Errorf("after first half: usage = %d, want 2048", got)
		}
		f.WriteAt(p, 2048, 2048) // adjacent: extends the cached request
		if got := tb.Machines[0].Cache.Usage(); got != 4096 {
			t.Errorf("after extension: usage = %d, want 4096", got)
		}
		f.WriteAt(p, 1024, 2048) // overlap inside the dirty range: net 0
		if got := tb.Machines[0].Cache.Usage(); got != 4096 {
			t.Errorf("after overwrite: usage = %d, want 4096", got)
		}
	})
	tb.Sim.Run(time.Minute)
}

// Two client machines mounting the same server must present distinct
// file handles (per-machine FSIDs), and every byte each machine writes
// must arrive exactly once in that machine's file — the integrity check
// that identical handles used to corrupt.
func TestMultiClientIntegrity(t *testing.T) {
	tb := nfssim.NewTestbed(nfssim.Options{
		Server:  nfssim.ServerFiler,
		Client:  core.EnhancedConfig(),
		Clients: 2,
		Seed:    3,
	})
	const size = 2 << 20
	files := make([]*core.File, 2)
	finished := 0
	for i := 0; i < 2; i++ {
		i := i
		files[i] = tb.Machines[i].Client.Open()
		tb.Sim.Go("w", func(p *sim.Proc) {
			for w := 0; w < size/8192; w++ {
				files[i].WriteAt(p, int64(w)*8192, 8192)
			}
			files[i].Close(p)
			finished++
		})
	}
	tb.Sim.Run(5 * time.Minute)
	if finished != 2 {
		t.Fatalf("%d of 2 writers finished", finished)
	}
	fh0, fh1 := files[0].Inode().FH, files[1].Inode().FH
	if fh0 == fh1 {
		t.Fatalf("file handles collide across machines: %v", fh0)
	}
	for i, f := range files {
		cov := fileRecord(tb, f.Inode().FH).Received()
		if cov.Total() != size || !cov.Contains(0, size) {
			t.Fatalf("machine %d coverage %v, want [0,%d)", i, cov, size)
		}
	}
}

// Distinct FSIDs: files opened on different machines of one test bed
// never share a handle, even at the same per-machine file index.
func TestMachinesMintDistinctHandles(t *testing.T) {
	tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler, Clients: 3})
	fhs := map[nfsproto.FileHandle]bool{}
	for i, m := range tb.Machines {
		fh := m.Client.Open().Inode().FH
		if fhs[fh] {
			t.Fatalf("machine %d produced a colliding file handle %v", i, fh)
		}
		fhs[fh] = true
	}
}

// Regression for the charge-after-queue race: a writer throttled on
// memory pressure used to park *after* its request was already visible
// to flushd, letting writeback start on bytes the cache had not
// admitted ("mm: writeback exceeds dirty" panic). The charge now lands
// before the request is queued. Sub-page writes against a tiny cache
// reproduce the original panic within milliseconds.
func TestThrottledSubPageWritesDoNotOutrunAccounting(t *testing.T) {
	tb := nfssim.NewTestbed(nfssim.Options{
		Server:     nfssim.ServerFiler,
		Client:     core.EnhancedConfig(),
		CacheLimit: 64 << 10,
		Seed:       3,
	})
	f := tb.Machines[0].Client.Open()
	done := false
	tb.Sim.Go("w", func(p *sim.Proc) {
		for i := 0; i < 1024; i++ { // 2 MB of sequential 2 KB writes
			f.WriteAt(p, int64(i)*2048, 2048)
		}
		f.Close(p)
		done = true
	})
	tb.Sim.Run(10 * time.Minute)
	if !done {
		t.Fatal("run did not finish")
	}
	if tb.Machines[0].Cache.Usage() != 0 {
		t.Fatalf("cache not drained: %d", tb.Machines[0].Cache.Usage())
	}
	if cov := fileRecord(tb, f.Inode().FH).Received(); cov.Total() != 2<<20 || !cov.Contains(0, 2<<20) {
		t.Fatal("server coverage incomplete")
	}
}

// Regression for the tiny-cache wedge: with a budget below the flushd
// watermark (8 pages), the writer used to block in ChargeDirty before
// anything had ever signaled the write-behind daemon — a deadlock. The
// writer now kicks flushd awake before parking on memory pressure.
func TestCacheSmallerThanWatermarkMakesProgress(t *testing.T) {
	// Both a page-aligned budget (the writer parks at exactly 100% of
	// the limit) and a misaligned one (the park point sits below the
	// 90% pressure threshold, so only the Throttled signal can wake
	// writeback) must make progress.
	for _, limit := range []int64{4 * vfs.PageSize, 4*vfs.PageSize + 2048} {
		tb := nfssim.NewTestbed(nfssim.Options{
			Server:     nfssim.ServerFiler,
			Client:     core.EnhancedConfig(),
			CacheLimit: limit, // well below the 8-page flushd watermark
			Seed:       3,
		})
		f := tb.Machines[0].Client.Open()
		done := false
		tb.Sim.Go("w", func(p *sim.Proc) {
			for i := 0; i < 256; i++ { // 1 MB in page-sized writes
				f.WriteAt(p, int64(i)*vfs.PageSize, vfs.PageSize)
			}
			f.Close(p)
			done = true
		})
		tb.Sim.Run(10 * time.Minute)
		if !done {
			t.Fatalf("limit %d: writer wedged, cache below the flushd watermark never drained", limit)
		}
		if tb.Machines[0].Cache.ThrottleEvents == 0 {
			t.Fatalf("limit %d: expected memory-pressure throttling", limit)
		}
	}
}
