package core_test

import (
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// A cold-file sequential read must fetch every page exactly once over
// READ RPCs, leave them cached, and serve a re-read entirely from memory.
func TestReadColdFileFetchesAndCaches(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.EnhancedConfig())
	const size = 1 << 20
	f := tb.Machines[0].Client.OpenExisting(size)
	var total int
	tb.Sim.Go("reader", func(p *sim.Proc) {
		for {
			got := f.ReadAt(p, int64(total), 8192)
			if got == 0 {
				break
			}
			total += got
		}
		if rpcs := tb.Machines[0].Client.RPCs(nfsproto.ProcRead); rpcs == 0 {
			t.Error("no READ RPCs issued for a cold file")
		}
		if f.Inode().CachedPages() != size/4096 {
			t.Errorf("cached pages = %d, want %d", f.Inode().CachedPages(), size/4096)
		}
		// Re-read from the front: all pages resident, no new RPCs.
		before := tb.Machines[0].Client.RPCs(nfsproto.ProcRead)
		missesBefore := tb.Machines[0].Cache.ReadMisses
		if got := f.ReadAt(p, 0, size); got != size {
			t.Errorf("re-read got %d", got)
		}
		if tb.Machines[0].Client.RPCs(nfsproto.ProcRead) != before {
			t.Errorf("re-read issued %d new RPCs", tb.Machines[0].Client.RPCs(nfsproto.ProcRead)-before)
		}
		if tb.Machines[0].Cache.ReadMisses != missesBefore {
			t.Errorf("re-read missed %d pages", tb.Machines[0].Cache.ReadMisses-missesBefore)
		}
	})
	tb.Sim.Run(10 * time.Minute)
	if total != size {
		t.Fatalf("read %d bytes, want %d", total, size)
	}
	if hits, misses := tb.Machines[0].Cache.ReadHits, tb.Machines[0].Cache.ReadMisses; hits+misses != 2*size/4096 {
		t.Fatalf("hit/miss accounting: %d + %d lookups, want %d", hits, misses, 2*size/4096)
	}
	if tb.Server.Reads == 0 || tb.Server.BytesRead != size {
		t.Fatalf("server saw %d READs / %d bytes, want %d bytes", tb.Server.Reads, tb.Server.BytesRead, size)
	}
}

// READ transfers follow the mount's wsize (rsize=wsize, §3.1): at a
// 32 KiB wsize every demand fetch of a cold sequential scan is one 32 KiB
// READ. Readahead is off because its window is counted in pages, not
// rsize chunks, so the last run of a window may be a shorter READ.
func TestReadSizeFollowsWSize(t *testing.T) {
	cfg := core.EnhancedConfig()
	cfg.WSize = 32768
	cfg.ReadaheadMaxPages = core.ReadaheadOff
	tb := newBed(t, nfssim.ServerFiler, cfg)
	const size = 1 << 20
	f := tb.Machines[0].Client.OpenExisting(size)
	var total int
	tb.Sim.Go("reader", func(p *sim.Proc) {
		for {
			got := f.ReadAt(p, int64(total), 8192)
			if got == 0 {
				break
			}
			total += got
		}
	})
	tb.Sim.Run(10 * time.Minute)
	if total != size {
		t.Fatalf("read %d bytes, want %d", total, size)
	}
	if tb.Server.BytesRead != size || tb.Server.Reads*32768 != tb.Server.BytesRead {
		t.Fatalf("server served %d READs carrying %d bytes, want %d READs of 32 KiB",
			tb.Server.Reads, tb.Server.BytesRead, size/32768)
	}
}

// The readahead window must grow while the reader streams sequentially
// and collapse back to the minimum on a seek.
func TestReadaheadWindowGrowsAndResets(t *testing.T) {
	cfg := core.EnhancedConfig()
	tb := newBed(t, nfssim.ServerFiler, cfg)
	const size = 4 << 20
	f := tb.Machines[0].Client.OpenExisting(size)
	tb.Sim.Go("reader", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			f.ReadAt(p, int64(i)*8192, 8192)
		}
		if w := f.Inode().ReadaheadWindow(); w != cfg.ReadaheadMaxPages {
			t.Errorf("after 128 sequential pages window = %d, want the cap %d", w, cfg.ReadaheadMaxPages)
		}
		// Seek far away: the next access resets the window to the minimum.
		f.ReadAt(p, size-8192, 4096)
		if w := f.Inode().ReadaheadWindow(); w != cfg.ReadaheadMinPages {
			t.Errorf("after seek window = %d, want the minimum %d", w, cfg.ReadaheadMinPages)
		}
	})
	tb.Sim.Run(10 * time.Minute)
}

// Readahead off must be strictly slower than the enhanced window on a
// sequential scan: every rsize chunk waits out a full server round trip
// instead of arriving ahead of the reader.
func TestReadaheadAblationStrictlyOrdered(t *testing.T) {
	elapsed := func(cfg core.Config) sim.Time {
		tb := newBed(t, nfssim.ServerFiler, cfg)
		res := bonnie.RunWorkload(tb.Sim, "read", tb.Machines[0].OpenSet(), bonnie.Config{
			FileSize: 4 << 20, Workload: bonnie.WorkloadRead, TimeLimit: 10 * time.Minute,
		})
		return res.WriteElapsed
	}
	off := core.EnhancedConfig()
	off.ReadaheadMaxPages = core.ReadaheadOff
	on, noRA := elapsed(core.EnhancedConfig()), elapsed(off)
	if on >= noRA {
		t.Fatalf("readahead on (%v) not strictly faster than off (%v)", on, noRA)
	}
}

// Read-after-write coherence: reading back just-written data must hit
// the page cache instead of issuing READ RPCs for pages the server may
// not even hold yet.
func TestReadAfterWriteHitsCache(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.EnhancedConfig())
	f := tb.Machines[0].Client.Open()
	tb.Sim.Go("rw", func(p *sim.Proc) {
		f.WriteAt(p, 0, 64<<10)
		if got := f.ReadAt(p, 0, 64<<10); got != 64<<10 {
			t.Errorf("read back %d bytes", got)
		}
		if tb.Machines[0].Client.RPCs(nfsproto.ProcRead) != 0 {
			t.Errorf("read-after-write issued %d READ RPCs", tb.Machines[0].Client.RPCs(nfsproto.ProcRead))
		}
		if tb.Machines[0].Cache.ReadMisses != 0 || tb.Machines[0].Cache.ReadHits != 16 {
			t.Errorf("hits/misses = %d/%d, want 16/0", tb.Machines[0].Cache.ReadHits, tb.Machines[0].Cache.ReadMisses)
		}
	})
	tb.Sim.Run(time.Minute)
}

// A half-specified readahead window must not silently disable
// readahead: setting only the minimum keeps a positive cap.
func TestHalfSpecifiedReadaheadStaysOn(t *testing.T) {
	cfg := core.EnhancedConfig()
	cfg.ReadaheadMinPages = 8
	cfg.ReadaheadMaxPages = 0
	tb := newBed(t, nfssim.ServerFiler, cfg)
	f := tb.Machines[0].Client.OpenExisting(1 << 20)
	tb.Sim.Go("reader", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			f.ReadAt(p, int64(i)*8192, 8192)
		}
		if w := f.Inode().ReadaheadWindow(); w < 8 {
			t.Errorf("window = %d after sequential reads; half-specified config disabled readahead", w)
		}
	})
	tb.Sim.Run(time.Minute)
}

// Read must observe EOF: a partial final chunk, then zero.
func TestReadEOF(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.EnhancedConfig())
	f := tb.Machines[0].Client.OpenExisting(8192 + 100)
	tb.Sim.Go("reader", func(p *sim.Proc) {
		if got := f.ReadAt(p, 0, 8192); got != 8192 {
			t.Errorf("first read = %d", got)
		}
		if got := f.ReadAt(p, 8192, 8192); got != 100 {
			t.Errorf("partial read = %d, want 100", got)
		}
		if got := f.ReadAt(p, 8192+100, 8192); got != 0 {
			t.Errorf("read past EOF = %d, want 0", got)
		}
	})
	tb.Sim.Run(time.Minute)
}

// Concurrent readers and writers against one server: four workers on one
// machine each run the mixed workload (cold-file reads interleaved with
// fresh-file writes). Every written byte must arrive at the server
// exactly once and every read must complete — with -race this also
// exercises the locking of the shared client state under the harness's
// parallel runners.
func TestConcurrentReadersAndWritersOneServer(t *testing.T) {
	tb := newBed(t, nfssim.ServerLinux, core.EnhancedConfig())
	const workers, size = 4, 1 << 20
	var writeFiles []*core.File
	res := bonnie.RunConcurrentWorkload(tb.Sim, "mixed",
		func(i int) vfs.OpenSet {
			return vfs.OpenSet{
				Fresh: func() vfs.File {
					f := tb.Machines[0].Client.Open()
					writeFiles = append(writeFiles, f)
					return f
				},
				Existing: func(sz int64) vfs.File { return tb.Machines[0].Client.OpenExisting(sz) },
			}
		},
		workers, bonnie.Config{FileSize: size, Workload: bonnie.WorkloadMixed, TimeLimit: 20 * time.Minute})
	if res.TotalBytes != workers*size {
		t.Fatalf("total bytes = %d", res.TotalBytes)
	}
	if len(writeFiles) != workers {
		t.Fatalf("opened %d fresh files", len(writeFiles))
	}
	for i, f := range writeFiles {
		cov := fileRecord(tb, f.Inode().FH).Received()
		if cov.Total() != size/2 || !cov.Contains(0, size/2) {
			t.Fatalf("writer %d coverage %v, want [0,%d)", i, cov, size/2)
		}
	}
	if tb.Server.BytesRead != workers*size/2 {
		t.Fatalf("server read bytes = %d, want %d", tb.Server.BytesRead, workers*size/2)
	}
	if tb.Machines[0].Cache.ReadHits == 0 {
		t.Fatal("no read hits recorded")
	}
}
