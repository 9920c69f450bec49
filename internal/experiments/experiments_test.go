package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/stats"
)

// withGrid runs e's grid after edit adjusts a copy of it.
func withGrid(e *Experiment, edit func(*harness.Grid)) []harness.Result {
	g := *e.Grid
	edit(&g)
	return RunGrid(g)
}

// sweepAt runs a Figure 1/7 spec at the given sizes.
func sweepAt(e *Experiment, sizes ...int) (linux, filer, local *stats.Series) {
	return SweepSeries(withGrid(e, func(g *harness.Grid) { g.FileSizesMB = sizes }))
}

// These are the integration tests that pin the paper's shapes. Sweeps use
// a reduced size grid to stay fast; trace/table experiments run at the
// paper's own parameters.

func TestFig1Shape(t *testing.T) {
	linux, filer, local := sweepAt(Fig1, 25, 100, 250, 450)
	// Local peaks at memory speed (>150 MB/s), NFS stays at network
	// speed (<40 MB/s) at every size.
	if maxY(local) < 150_000 {
		t.Fatalf("local peak = %.0f KB/s, want > 150 MB/s", maxY(local))
	}
	for _, p := range filer.Points {
		if p.Y > 40_000 || p.Y < 15_000 {
			t.Fatalf("filer NFS throughput %.0f KB/s at %g MB outside 15-40 MB/s", p.Y, p.X)
		}
	}
	for _, p := range linux.Points {
		if p.Y > 35_000 || p.Y < 10_000 {
			t.Fatalf("linux NFS throughput %.0f KB/s at %g MB outside 10-35 MB/s", p.Y, p.X)
		}
	}
	// "the large peak in memory write performance for local files does
	// not appear for NFS files": NFS curves are flat (max/min < 1.5x)
	// while local varies by > 3x.
	if flat := maxY(filer) / minY(filer); flat > 1.5 {
		t.Fatalf("filer curve not flat: max/min = %.2f", flat)
	}
	if dyn := maxY(local) / minY(local); dyn < 3 {
		t.Fatalf("local curve should peak then collapse: max/min = %.2f", dyn)
	}
	// Local writes beat NFS while memory lasts.
	if yAt(local, 25) < 3*yAt(filer, 25) {
		t.Fatal("local memory writes should dwarf stock NFS writes")
	}
}

// yAt returns the y value at x (0 when x is absent).
func yAt(s *stats.Series, x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	return 0
}

// maxY returns the largest y value in the series (0 when empty).
func maxY(s *stats.Series) float64 {
	m := 0.0
	for _, p := range s.Points {
		m = max(m, p.Y)
	}
	return m
}

func minY(s *stats.Series) float64 {
	if len(s.Points) == 0 {
		return 0
	}
	m := s.Points[0].Y
	for _, p := range s.Points {
		if p.Y < m {
			m = p.Y
		}
	}
	return m
}

func TestFig2Shape(t *testing.T) {
	r := Fig2()
	if r.Result.Calls != 5120 {
		t.Fatalf("calls = %d, want 5120 (40 MB / 8 KB)", r.Result.Calls)
	}
	if r.Spikes < 30 {
		t.Fatalf("spikes = %d, want dozens", r.Spikes)
	}
	if r.SpikePeriod < 80 || r.SpikePeriod > 105 {
		t.Fatalf("spike period = %.1f, want ~96 (soft limit / 2 pages per call)", r.SpikePeriod)
	}
	// Spikes exceed 10 ms (paper: >19 ms at its drain rate).
	if r.Result.Trace.Summary().Max < 10*time.Millisecond {
		t.Fatalf("max spike = %v", r.Result.Trace.Summary().Max)
	}
	// Mean inflation factor (paper: 3.45x).
	ratio := float64(r.MeanAll) / float64(r.MeanBelow)
	if ratio < 2 || ratio > 6 {
		t.Fatalf("mean inflation = %.2f, want 2-6", ratio)
	}
	if !strings.Contains(r.Render(), "Figure 2") {
		t.Fatal("render missing title")
	}
}

func TestFig3Fig4Shapes(t *testing.T) {
	f3 := Fig3()
	f4 := Fig4()

	// Figure 3: no spikes, but strong positive slope and mean well above
	// the fast path.
	if f3.Spikes != 0 {
		t.Fatalf("fig3 has %d >1ms spikes; flush removal should kill them", f3.Spikes)
	}
	if f3.SlopeNsCall <= 5 {
		t.Fatalf("fig3 slope = %.1f ns/call, want clearly positive", f3.SlopeNsCall)
	}
	// Figure 4: flat and fast.
	if f4.SlopeNsCall > 5 {
		t.Fatalf("fig4 slope = %.1f ns/call, want ~0", f4.SlopeNsCall)
	}
	if f3.MeanAll < 3*f4.MeanAll {
		t.Fatalf("fig3 mean %v should be >3x fig4 mean %v", f3.MeanAll, f4.MeanAll)
	}
	// Paper: fig4 sustains ~115 MB/s vs 28 MB/s before the fixes.
	if f4.Result.WriteMBps < 90 {
		t.Fatalf("fig4 write throughput = %.1f MB/s, want >90", f4.Result.WriteMBps)
	}
	// The paper's §3.3 result: removing the flushes alone does NOT
	// improve mean latency (484.7 vs 482.1 µs there).
	f2 := Fig2()
	lo, hi := f2.MeanAll/2, f2.MeanAll*2
	if f3.MeanAll < lo || f3.MeanAll > hi {
		t.Fatalf("fig3 mean %v should be comparable to fig2 mean %v", f3.MeanAll, f2.MeanAll)
	}
}

func TestFig5Fig6Shapes(t *testing.T) {
	f5 := Fig5()
	f6 := Fig6()

	// Figure 5: the faster filer has MORE slow calls than the Linux
	// server when the BKL is held across sends.
	if f5.FilerHist.TailCount(TailCutoff) <= f5.LinuxHist.TailCount(TailCutoff) {
		t.Fatalf("fig5: filer tail %d <= linux tail %d; faster server should contend more",
			f5.FilerHist.TailCount(TailCutoff), f5.LinuxHist.TailCount(TailCutoff))
	}
	// Figure 6: the lock fix shrinks the tail on both servers...
	if f6.FilerHist.TailCount(TailCutoff) >= f5.FilerHist.TailCount(TailCutoff) {
		t.Fatalf("fig6 filer tail %d >= fig5 %d", f6.FilerHist.TailCount(TailCutoff), f5.FilerHist.TailCount(TailCutoff))
	}
	if f6.LinuxHist.TailCount(TailCutoff) > f5.LinuxHist.TailCount(TailCutoff) {
		t.Fatalf("fig6 linux tail %d > fig5 %d", f6.LinuxHist.TailCount(TailCutoff), f5.LinuxHist.TailCount(TailCutoff))
	}
	// ...means drop...
	if f6.Filer.Mean >= f5.Filer.Mean || f6.Linux.Mean >= f5.Linux.Mean {
		t.Fatalf("means did not drop: filer %v->%v linux %v->%v",
			f5.Filer.Mean, f6.Filer.Mean, f5.Linux.Mean, f6.Linux.Mean)
	}
	// ...and maximum latency drops for the filer (381 -> 292 µs in §3.5).
	if f6.Filer.Max >= f5.Filer.Max {
		t.Fatalf("filer max did not drop: %v -> %v", f5.Filer.Max, f6.Filer.Max)
	}
	// "minimum latency hardly changes" (±20%).
	if f6.Filer.Min < f5.Filer.Min*8/10 || f6.Filer.Min > f5.Filer.Min*12/10 {
		t.Fatalf("filer min moved: %v -> %v", f5.Filer.Min, f6.Filer.Min)
	}
	// Figure 5: filer writes take longer than Linux-server writes on
	// average. Figure 6: "the difference is small" — the gap shrinks and
	// stays within a few percent.
	if f5.Filer.Mean <= f5.Linux.Mean {
		t.Fatalf("fig5: filer mean %v <= linux mean %v", f5.Filer.Mean, f5.Linux.Mean)
	}
	gap5 := f5.Filer.Mean - f5.Linux.Mean
	gap6 := f6.Filer.Mean - f6.Linux.Mean
	if gap6 >= gap5 {
		t.Fatalf("filer-linux mean gap did not shrink: %v -> %v", gap5, gap6)
	}
	if gap6 > f6.Linux.Mean*3/100 || gap6 < -f6.Linux.Mean*3/100 {
		t.Fatalf("fig6 gap %v not small relative to %v", gap6, f6.Linux.Mean)
	}
	if !strings.Contains(f5.Render(), "histogram") {
		t.Fatal("render broken")
	}
}

func TestTable1Shape(t *testing.T) {
	rows := RunGrid(*Table1.Grid)
	// Config-major grid order: BKL held (hash) first, then released.
	fLock, lLock, fNoLock, lNoLock := rows[0].WriteMBps, rows[1].WriteMBps, rows[2].WriteMBps, rows[3].WriteMBps
	fNet, lNet := rows[0].ServerNetMBps, rows[1].ServerNetMBps
	// Both servers improve without the lock.
	if fNoLock <= fLock {
		t.Fatalf("filer: %0.1f -> %0.1f; lock removal should help",
			fLock, fNoLock)
	}
	if lNoLock <= lLock {
		t.Fatalf("linux: %0.1f -> %0.1f; lock removal should help",
			lLock, lNoLock)
	}
	// The filer (faster server) gains more (+22% vs +6.5% in Table 1).
	fGain := fNoLock / fLock
	lGain := lNoLock / lLock
	if fGain <= lGain {
		t.Fatalf("filer gain %.3f <= linux gain %.3f", fGain, lGain)
	}
	// With the lock, memory writes to the faster filer are SLOWER.
	if fLock >= lLock {
		t.Fatalf("with BKL: filer %.1f >= linux %.1f MBps", fLock, lLock)
	}
	// §3.5 framing: filer sustains more network throughput than linux.
	if fNet <= lNet {
		t.Fatalf("filer net %.1f <= linux net %.1f", fNet, lNet)
	}
	// Linux server's ingest is in the paper's ballpark (26 MBps).
	if lNet < 18 || lNet > 33 {
		t.Fatalf("linux ingest %.1f MBps, want ~26", lNet)
	}
	if out := Table1.Render(rows); !strings.Contains(out, "Table 1") || strings.Count(out, "MBps  ") != 4 {
		t.Fatalf("render broken:\n%s", out)
	}
}

func TestSlow100Shape(t *testing.T) {
	rows := RunGrid(*Slow100.Grid)
	slow, filer := rows[0], rows[1]
	if slow.WriteMBps <= filer.WriteMBps {
		t.Fatalf("slow-server memory writes %.1f <= filer %.1f", slow.WriteMBps, filer.WriteMBps)
	}
	if slow.ServerNetMBps >= 10.5 {
		t.Fatalf("slow server ingest %.1f, want <10 MBps", slow.ServerNetMBps)
	}
	if !strings.Contains(Slow100.Render(rows), "Slow-server") {
		t.Fatal("render broken")
	}
}

func TestProfileShape(t *testing.T) {
	r := Profile()
	// Pre-fix: list scans among top consumers.
	found := false
	for _, e := range r.TopPreFix {
		if strings.HasPrefix(e.Label, "nfs_find_request") || e.Label == "nfs_update_request(scan)" {
			found = true
		}
	}
	if !found {
		t.Fatalf("list scans not in pre-fix top consumers: %+v", r.TopPreFix)
	}
	// Post-fix: the scan entries vanish from the top.
	for _, e := range r.TopPostFix[:3] {
		if e.Label == "nfs_find_request" || e.Label == "nfs_update_request(scan)" {
			t.Fatalf("scan still a top-3 consumer after the hash fix: %+v", r.TopPostFix)
		}
	}
	// §3.5: ~90% of BKL waiting is sock_sendmsg; accept >=60%.
	if r.SendFraction < 0.6 {
		t.Fatalf("sock_sendmsg BKL-wait share = %.2f", r.SendFraction)
	}
	if !strings.Contains(r.Render(), "sock_sendmsg") {
		t.Fatal("render broken")
	}
}

func TestJumboShape(t *testing.T) {
	rows := RunGrid(*Jumbo.Grid)
	std, jumbo := rows[0], rows[1]
	// Jumbo frames must reduce sock_sendmsg CPU per §3.5's conjecture.
	if jumbo.SendCPU >= std.SendCPU {
		t.Fatalf("jumbo send CPU %v >= standard %v", jumbo.SendCPU, std.SendCPU)
	}
	// End-to-end throughput should not get worse.
	if jumbo.FlushMBps < std.FlushMBps*95/100 {
		t.Fatalf("jumbo throughput %.1f well below standard %.1f", jumbo.FlushMBps, std.FlushMBps)
	}
	if !strings.Contains(Jumbo.Render(rows), "Jumbo") {
		t.Fatal("render broken")
	}
}

func TestFig7Shape(t *testing.T) {
	linux, filer, local := sweepAt(Fig7, 25, 200, 450)
	// Enhanced NFS memory writes approach local speed for small files
	// (same order of magnitude; paper: 115-150 vs ~170-200 MB/s)...
	if yAt(filer, 25) < 90_000 {
		t.Fatalf("enhanced filer writes %.0f KB/s at 25 MB, want >90 MB/s", yAt(filer, 25))
	}
	// ...NFS no longer tracks network throughput...
	if yAt(filer, 25) < 2.5*35_000 {
		t.Fatal("enhanced client still pinned to network speed")
	}
	// ...and the filer sustains high throughput longer than the Linux
	// server as memory runs out (NVRAM + faster ingest).
	if yAt(filer, 450) <= yAt(linux, 450) {
		t.Fatalf("at 450 MB filer %.0f <= linux %.0f KB/s", yAt(filer, 450), yAt(linux, 450))
	}
	// Local ext2 trails off hardest (EIDE disk).
	if yAt(local, 450) >= yAt(linux, 450) {
		t.Fatalf("local %.0f should trail linux %.0f at 450 MB", yAt(local, 450), yAt(linux, 450))
	}
	// Throughput at 25 MB far exceeds throughput at 450 MB (memory cliff).
	if yAt(filer, 25) < 15*yAt(filer, 450)/10 {
		t.Fatal("no memory cliff visible for the filer curve")
	}
}

func TestConcurrencyShape(t *testing.T) {
	r := Concurrency()
	if r.NoLockMBps <= r.LockMBps {
		t.Fatalf("aggregate no-lock %.1f <= lock %.1f MBps", r.NoLockMBps, r.LockMBps)
	}
	if r.NoLockMean >= r.LockMeanLat {
		t.Fatalf("no-lock mean %v >= lock mean %v", r.NoLockMean, r.LockMeanLat)
	}
	if !strings.Contains(r.Render(), "Concurrent") {
		t.Fatal("render broken")
	}
}

func TestScalingShape(t *testing.T) {
	rows := RunGrid(*Scaling.Grid)
	if len(rows) != 8 { // 2 configs x {1, 2, 4, 8} clients
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	byConfig := map[string][]harness.Result{}
	for _, row := range rows {
		if row.CloseMBps <= 0 || row.AggMBps <= 0 {
			t.Fatalf("empty throughput in row %s", row.Name)
		}
		if row.Fairness <= 0 || row.Fairness > 1 {
			t.Fatalf("fairness %v out of (0, 1] in row %s", row.Fairness, row.Name)
		}
		byConfig[row.Config] = append(byConfig[row.Config], row)
	}
	for _, cfg := range []string{"stock", "enhanced"} {
		rows := byConfig[cfg]
		if len(rows) != 4 {
			t.Fatalf("%s has %d client counts, want 4", cfg, len(rows))
		}
		// Two clients outrun one: the shared server is not saturated by a
		// single client machine's full write+flush+close run.
		if rows[1].AggMBps <= rows[0].AggMBps {
			t.Fatalf("%s: 2-client aggregate %.1f <= 1-client %.1f",
				cfg, rows[1].AggMBps, rows[0].AggMBps)
		}
		// Identical machines split the server evenly.
		for _, row := range rows {
			if row.Clients > 1 && row.Fairness < 0.9 {
				t.Fatalf("%s x%d: fairness %.3f, want >= 0.9", cfg, row.Clients, row.Fairness)
			}
		}
		// Per-client share shrinks once the fleet shares the ingest ceiling.
		if rows[3].CloseMBps >= rows[0].CloseMBps {
			t.Fatalf("%s: 8-client per-client %.1f >= 1-client %.1f",
				cfg, rows[3].CloseMBps, rows[0].CloseMBps)
		}
	}
	out := Scaling.Table(rows)
	for _, want := range []string{"scale-out", "fairness", "stock", "enhanced"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// The lossy-network experiment enforces the transport claim end to end:
// at 1% and 5% fragment loss, TCP's end-to-end throughput degrades
// strictly less than UDP's, for both the stock and the enhanced client.
func TestLossSweepShape(t *testing.T) {
	rows := RunGrid(*Loss.Grid)
	if len(rows) != 16 { // 2 configs x 2 transports x 4 loss rates
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	for _, row := range rows {
		if row.AggMBps <= 0 {
			t.Fatalf("empty throughput in row %s", row.Name)
		}
		if row.Loss == 0 && row.Retransmits != 0 {
			t.Fatalf("lossless row has retransmissions: %s", row.Name)
		}
		if row.Loss >= 0.01 && row.Retransmits == 0 {
			t.Fatalf("lossy row repaired nothing: %s", row.Name)
		}
	}
	for _, cfg := range []string{"stock", "enhanced"} {
		for _, loss := range []float64{0.01, 0.05} {
			udp := LossDegradation(rows, cfg, "udp", loss)
			tcp := LossDegradation(rows, cfg, "tcp", loss)
			if udp < 0 || tcp < 0 {
				t.Fatalf("%s @ %g: missing baseline", cfg, loss)
			}
			// The acceptance criterion: TCP degrades strictly less.
			if tcp >= udp {
				t.Fatalf("%s @ %g%% loss: TCP degradation %.3f not strictly below UDP %.3f",
					cfg, loss*100, tcp, udp)
			}
		}
		// And UDP at >= 1% loss must show the paper's catastrophe: more
		// than half the throughput gone to loss amplification + timer
		// stalls.
		if d := LossDegradation(rows, cfg, "udp", 0.01); d < 0.5 {
			t.Fatalf("%s: UDP degradation at 1%% loss only %.3f; loss amplification missing", cfg, d)
		}
	}
	out := Loss.Table(rows)
	for _, want := range []string{"Lossy network", "udp", "tcp", "strictly better: true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "strictly better: false") {
		t.Fatalf("render reports a violated comparison:\n%s", out)
	}
}

// The random-access experiment enforces fix 2's headline end to end: the
// hash client beats both the stock client and the unbounded linear list
// on random writes — the access pattern where list-scan CPU dominates —
// while staying within noise of its own sequential rate, and random
// reads defeat the sequential readahead window.
func TestRandomSweepShape(t *testing.T) {
	rows := RunGrid(*Random.Grid)
	if len(rows) != 16 { // 4 configs x 4 workloads
		t.Fatalf("rows = %d, want 16", len(rows))
	}
	for _, row := range rows {
		if row.WriteMBps <= 0 {
			t.Fatalf("empty throughput in row %s", row.Name)
		}
		if row.RPCsSent+row.ReadRPCs == 0 {
			t.Fatalf("row moved no RPCs: %s", row.Name)
		}
	}
	mbps := func(cfg, wl string) float64 { return Random.Row(rows, cfg, wl).WriteMBps }
	// The acceptance criterion: the hash client beats the stock client on
	// random writes, by the margin the fix progression promises.
	hashRand, stockRand := mbps("hash", "randwrite"), mbps("stock", "randwrite")
	if hashRand <= 2*stockRand {
		t.Fatalf("hash random writes %.1f MBps not > 2x stock %.1f", hashRand, stockRand)
	}
	// Fix 2 in isolation: against the same cache-all flushing, the hash
	// table beats the linear list on random writes, where every lookup
	// rescans a non-adjacent backlog (figure-3/4 divergence).
	if listRand := mbps("nolimits", "randwrite"); hashRand <= 1.3*listRand {
		t.Fatalf("hash random writes %.1f MBps not >= 1.3x linear list %.1f", hashRand, listRand)
	}
	// Parity sequentially: random access costs the hash client nothing —
	// its random-write rate stays within noise of its sequential rate.
	hashSeq := mbps("hash", "write")
	if ratio := hashRand / hashSeq; ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("hash random/sequential ratio %.3f outside [0.9, 1.1] (%.1f vs %.1f MBps)",
			ratio, hashRand, hashSeq)
	}
	// The stock client is also at parity with itself: its request-count
	// limits bound the list, so the scans never grow — random access is
	// only expensive once fix 1 removes the limits and the list is long.
	if ratio := stockRand / mbps("stock", "write"); ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("stock random/sequential ratio %.3f outside [0.85, 1.15]", ratio)
	}
	// Random reads defeat readahead: every seek collapses the window, so
	// the reader pays a round trip per miss instead of streaming.
	if seqRead, randRead := mbps("enhanced", "read"), mbps("enhanced", "randread"); seqRead <= 3*randRead {
		t.Fatalf("sequential read %.1f MBps not > 3x random read %.1f", seqRead, randRead)
	}
	// The stock client's write-family rows hit the soft limit (random
	// requests count against MAX_REQUEST_SOFT like any other).
	for _, row := range rows {
		wantSoft := row.Config == "stock" && (row.Workload == "write" || row.Workload == "randwrite")
		if wantSoft && row.SoftFlushes == 0 {
			t.Fatalf("stock %s row recorded no soft flushes", row.Workload)
		}
		if !wantSoft && row.SoftFlushes != 0 {
			t.Fatalf("%s/%s row recorded %d soft flushes", row.Config, row.Workload, row.SoftFlushes)
		}
	}
	out := Random.Table(rows)
	for _, want := range []string{"Random access", "randwrite", "parity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// The database-load experiment enforces §3.6 end to end: group commits
// cost strictly less against the filer (NVRAM, zero COMMITs) than
// against the Linux server (UNSTABLE replies, a COMMIT per fsync that
// waits on the disk), and the patched client beats the stock client on
// both servers even under a fsync-bound transactional load.
func TestDBLoadShape(t *testing.T) {
	rows := RunGrid(*DB.Grid)
	if len(rows) != 4 { // 2 servers x 2 configs
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, row := range rows {
		if row.WriteMBps <= 0 || TxPerSec(row) <= 0 {
			t.Fatalf("empty throughput in row %s", row.Name)
		}
		// 20 MB / 8 KB chunks = 2560 writes, one fsync per 50.
		if want := int64(2560 / 50); row.FsyncCount != want {
			t.Fatalf("fsync count = %d, want %d: %s", row.FsyncCount, want, row.Name)
		}
		if FsyncTime(row) == 0 {
			t.Fatalf("no fsync time recorded: %s", row.Name)
		}
		switch row.Server {
		case "filer":
			if row.CommitRPCs != 0 {
				t.Fatalf("filer run sent %d COMMITs (NVRAM should make them unnecessary)", row.CommitRPCs)
			}
		case "linux":
			// One COMMIT per fsync (plus the final close).
			if row.CommitRPCs < row.FsyncCount {
				t.Fatalf("linux run sent %d COMMITs for %d fsyncs", row.CommitRPCs, row.FsyncCount)
			}
		}
	}
	for _, cfg := range []string{"stock", "enhanced"} {
		f, l := DB.Row(rows, "filer", cfg), DB.Row(rows, "linux", cfg)
		if f == nil || l == nil {
			t.Fatalf("missing %s rows", cfg)
		}
		if FsyncTime(*f) >= FsyncTime(*l) {
			t.Fatalf("%s: filer fsync %v not below linux %v", cfg, FsyncTime(*f), FsyncTime(*l))
		}
		if TxPerSec(*f) <= TxPerSec(*l) {
			t.Fatalf("%s: filer tx/sec %.0f not above linux %.0f", cfg, TxPerSec(*f), TxPerSec(*l))
		}
	}
	for _, srv := range []string{"filer", "linux"} {
		stock, enh := DB.Row(rows, srv, "stock"), DB.Row(rows, srv, "enhanced")
		if enh.WriteMBps <= stock.WriteMBps {
			t.Fatalf("%s: enhanced %.1f MBps not above stock %.1f", srv, enh.WriteMBps, stock.WriteMBps)
		}
	}
	out := DB.Table(rows)
	for _, want := range []string{"Database load", "COMMIT", "filer faster: true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "filer faster: false") {
		t.Fatalf("render reports a violated comparison:\n%s", out)
	}
}

func TestReadSweepShape(t *testing.T) {
	rows := RunGrid(*Read.Grid)
	if len(rows) != 9 { // 3 configs x 3 workloads
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, row := range rows {
		if row.WriteMBps <= 0 || row.AggMBps <= 0 {
			t.Fatalf("empty throughput in row %s", row.Name)
		}
		if row.ReadRPCs == 0 {
			t.Fatalf("row fetched nothing over READ RPCs: %s", row.Name)
		}
		if hr := ReadHitRate(row); hr <= 0 || hr >= 1 {
			t.Fatalf("hit rate %.3f outside (0, 1): %s", hr, row.Name)
		}
	}
	// The acceptance criterion: on sequential reads, enhanced readahead
	// strictly outperforms readahead-off.
	on, off := Read.Row(rows, "enhanced", "read").WriteMBps, Read.Row(rows, "ra-off", "read").WriteMBps
	if on <= off {
		t.Fatalf("enhanced readahead %.2f MBps not strictly above readahead-off %.2f", on, off)
	}
	// And by a wide margin: the whole point of the window is hiding the
	// per-chunk round trip, which costs demand paging most of its rate.
	if on < 2*off {
		t.Fatalf("readahead speedup only %.2fx, want >= 2x", on/off)
	}
	// The enhanced window must also turn most lookups into hits, while
	// readahead-off misses on every chunk's first page.
	for _, row := range rows {
		switch hr := ReadHitRate(row); {
		case row.Config == "enhanced" && hr < 0.9:
			t.Fatalf("enhanced hit rate %.3f, want >= 0.9: %s", hr, row.Name)
		case row.Config == "ra-off" && hr > 0.6:
			t.Fatalf("ra-off hit rate %.3f, want <= 0.6: %s", hr, row.Name)
		}
	}
	out := Read.Table(rows)
	for _, want := range []string{"Read path", "readahead", "strictly better: true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestZipfSweepShape(t *testing.T) {
	rows := RunGrid(*Zipf.Grid)
	if len(rows) != 4 { // {zipf, uniform} x {ac on, ac off}
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, skew := range []string{"zipf", "uniform"} {
		on, off := Zipf.Row(rows, skew, "on"), Zipf.Row(rows, skew, "off")
		if on == nil || off == nil {
			t.Fatalf("missing %s cells", skew)
		}
		// Every cell does real work across the whole op mix.
		for _, row := range []*harness.Result{on, off} {
			if row.AggMBps <= 0 || row.LookupRPCs == 0 || row.CreateRPCs == 0 || row.RemoveRPCs == 0 {
				t.Fatalf("hollow cell %s", row.Name)
			}
		}
		// The acceptance criterion: attribute caching cuts GETATTR RPCs
		// and raises aggregate throughput vs. ac=0, at either skew.
		if on.GetattrRPCs >= off.GetattrRPCs {
			t.Fatalf("%s: %d GETATTRs with the cache, %d without", skew, on.GetattrRPCs, off.GetattrRPCs)
		}
		if on.AggMBps <= off.AggMBps {
			t.Fatalf("%s: cache-on %.2f MBps not above cache-off %.2f", skew, on.AggMBps, off.AggMBps)
		}
		if on.AttrCacheHitRate <= 0 {
			t.Fatalf("%s: cache on but hit rate %.3f", skew, on.AttrCacheHitRate)
		}
		if off.AttrCacheHitRate != 0 {
			t.Fatalf("%s: cache off but hit rate %.3f", skew, off.AttrCacheHitRate)
		}
	}
	// Hot-set skew: the popular files keep their cache entries warm, so
	// Zipfian access hits more often and spends fewer metadata RPCs than
	// uniform access over the same op count. (Throughput is not compared
	// across skews — the hot set's real data confounds it; see Zipf.)
	z, u := Zipf.Row(rows, "zipf", "on"), Zipf.Row(rows, "uniform", "on")
	if z.AttrCacheHitRate <= u.AttrCacheHitRate {
		t.Fatalf("zipf hit rate %.3f not above uniform %.3f", z.AttrCacheHitRate, u.AttrCacheHitRate)
	}
	if zm, um := MetadataRPCs(*z), MetadataRPCs(*u); zm >= um {
		t.Fatalf("zipf spent %d metadata RPCs, uniform %d; skew should save RPCs", zm, um)
	}
	out := Zipf.Table(rows)
	for _, want := range []string{"Many-file metadata", "attribute cache:", "hot-set skew:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "false") {
		t.Fatalf("render reports a violated comparison:\n%s", out)
	}
}

func TestCoherenceSweepShape(t *testing.T) {
	rows := RunGrid(*Coherence.Grid)
	if len(rows) != 3 { // strict, ttl, noac
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	strict, ttl, noac := Coherence.Row(rows, "strict"), Coherence.Row(rows, "ttl"), Coherence.Row(rows, "noac")
	if strict == nil || ttl == nil || noac == nil {
		t.Fatalf("missing mode cells:\n%s", Coherence.Table(rows))
	}
	// Every mode moves real data and the writers bump the server's
	// change attribute; the write mix is identical across modes, so the
	// bump counts must match exactly.
	for _, row := range []*harness.Result{strict, ttl, noac} {
		if row.AggMBps <= 0 || row.ChangeBumps == 0 {
			t.Fatalf("hollow cell %s", row.Name)
		}
	}
	if strict.ChangeBumps != ttl.ChangeBumps || ttl.ChangeBumps != noac.ChangeBumps {
		t.Fatalf("change bumps differ across modes: strict %d, ttl %d, noac %d",
			strict.ChangeBumps, ttl.ChangeBumps, noac.ChangeBumps)
	}
	// The acceptance criteria. Strict revalidates every open, so no
	// read is ever served off a stale cache — and it pays for that in
	// GETATTR traffic the ttl window saves.
	if strict.StaleReads != 0 {
		t.Fatalf("strict mode served %d stale reads, want 0", strict.StaleReads)
	}
	if strict.GetattrRPCs <= ttl.GetattrRPCs {
		t.Fatalf("strict spent %d GETATTRs, not above ttl's %d", strict.GetattrRPCs, ttl.GetattrRPCs)
	}
	// The ttl window bounds staleness strictly below noac's unbounded
	// trust, without giving up strict's throughput.
	if noac.StaleReads <= ttl.StaleReads {
		t.Fatalf("noac served %d stale reads, not above ttl's %d", noac.StaleReads, ttl.StaleReads)
	}
	if ttl.AggMBps < strict.AggMBps {
		t.Fatalf("ttl %.2f MBps below strict %.2f", ttl.AggMBps, strict.AggMBps)
	}
	// ttl is the middle of the trade-off, not a degenerate endpoint: it
	// does serve some stale reads (else it collapsed into strict) and
	// strict's revalidations do find foreign changes to invalidate.
	if ttl.StaleReads == 0 {
		t.Fatalf("ttl mode served no stale reads; window degenerated to strict")
	}
	if strict.Invalidations == 0 {
		t.Fatalf("strict revalidations never invalidated a cache")
	}
	out := Coherence.Table(rows)
	for _, want := range []string{"Cache coherence", "strict close-to-open:", "ttl window:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "false") {
		t.Fatalf("render reports a violated comparison:\n%s", out)
	}
}

// TestCoherenceSweepDeterminism pins the whole rendered coherence table
// byte-identical across harness worker counts and reruns — the same
// guarantee the golden CSVs give the write sweeps, for the experiment
// whose workload has the most scheduling freedom (writers and readers
// racing on one file).
func TestCoherenceSweepDeterminism(t *testing.T) {
	defer func(w int) { Workers = w }(Workers)
	Workers = 1
	first := Coherence.Output(false)
	Workers = 8
	second := Coherence.Output(false)
	if first != second {
		t.Fatalf("coherence sweep differs between -workers 1 and 8:\n--- workers=1\n%s\n--- workers=8\n%s", first, second)
	}
}

func TestFleetShape(t *testing.T) {
	// Reduced fleet sizes keep the test fast; the 1000-client row runs
	// in CI's smoke step and in BenchmarkFleet1000.
	rows := withGrid(Fleet, func(g *harness.Grid) { g.Clients = []int{10, 100} })
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	small, big := rows[0], rows[1]
	if small.Clients != 10 || big.Clients != 100 {
		t.Fatalf("client counts %d, %d; want 10, 100", small.Clients, big.Clients)
	}
	for _, row := range rows {
		if row.CloseMBps <= 0 || row.AggMBps <= 0 || row.ServerNetMBps <= 0 {
			t.Fatalf("empty throughput in row %s", row.Name)
		}
		if row.Fairness <= 0 || row.Fairness > 1 {
			t.Fatalf("fairness %v out of (0, 1] in row %s", row.Fairness, row.Name)
		}
		if share := SlotWaitShare(row); share < 0 || share > 1 {
			t.Fatalf("slot-wait share %v out of [0, 1] in row %s", share, row.Name)
		}
	}
	// The server's ingest ceiling is fixed, so ten times the clients get
	// roughly a tenth of the bandwidth each...
	if big.CloseMBps >= small.CloseMBps/2 {
		t.Fatalf("per-client did not collapse: %d clients %.2f, %d clients %.2f MBps",
			small.Clients, small.CloseMBps, big.Clients, big.CloseMBps)
	}
	// ...and requests convoy longer behind the slot table as replies
	// slow down under the larger fleet.
	if SlotWaitMeanUs(big) <= SlotWaitMeanUs(small) {
		t.Fatalf("slot-wait did not grow: %d clients %.0fus, %d clients %.0fus",
			small.Clients, SlotWaitMeanUs(small), big.Clients, SlotWaitMeanUs(big))
	}
	out := Fleet.Table(rows)
	for _, want := range []string{"Thousand-client fleet", "slot-wait share"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
