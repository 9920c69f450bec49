package core_test

import (
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// Regression for the flushd scan-set leak: Close must release the inode
// from the client's table, so the write-behind daemon's
// pickFlushable/queuedAnywhere scans only open files instead of every
// file ever opened, and closed files stop pinning their resident-page
// sets.
func TestCloseReleasesInode(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.EnhancedConfig())
	const files = 32
	tb.Sim.Go("w", func(p *sim.Proc) {
		open := make([]*core.File, 0, files)
		for i := 0; i < files; i++ {
			f := tb.Machines[0].Client.Open()
			f.WriteAt(p, 0, 64<<10)
			open = append(open, f)
		}
		if got := tb.Machines[0].Client.OpenInodes(); got != files {
			t.Errorf("open inodes = %d, want %d", got, files)
		}
		// Closing shrinks the scan set file by file.
		for i, f := range open {
			f.Close(p)
			if got, want := tb.Machines[0].Client.OpenInodes(), files-i-1; got != want {
				t.Errorf("after close %d: open inodes = %d, want %d", i, got, want)
			}
			if f.Inode().CachedPages() != 0 {
				t.Errorf("closed file %d still pins %d resident pages", i, f.Inode().CachedPages())
			}
		}
		if got := tb.Machines[0].Client.OpenInodes(); got != 0 {
			t.Errorf("all files closed but %d inodes remain", got)
		}
		// Double close stays a no-op after the release.
		open[0].Close(p)
		if got := tb.Machines[0].Client.OpenInodes(); got != 0 {
			t.Errorf("double close resurrected an inode: %d", got)
		}
	})
	tb.Sim.Run(5 * time.Minute)
	if tb.Machines[0].Client.MountRequests() != 0 {
		t.Fatalf("%d requests outstanding after all closes", tb.Machines[0].Client.MountRequests())
	}
}

// A many-file sequence — the mixed/many-file pattern whose memory the
// leak made unbounded — must end with an empty inode table even when
// files are read as well as written.
func TestCloseReleasesReadState(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.EnhancedConfig())
	tb.Sim.Go("rw", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			f := tb.Machines[0].Client.OpenExisting(256 << 10)
			for off := int64(0); f.ReadAt(p, off, 8192) > 0; off += 8192 {
			}
			f.Close(p)
		}
		if got := tb.Machines[0].Client.OpenInodes(); got != 0 {
			t.Errorf("open inodes after read/close loop = %d", got)
		}
	})
	tb.Sim.Run(5 * time.Minute)
}

// Closing a file right after a read must tolerate trailing readahead
// RPCs: the reader only ever waits for its demand pages, so window
// fetches can still be in flight at close, and their completions must
// land harmlessly on the released inode.
func TestCloseWithReadaheadInFlight(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.EnhancedConfig())
	done := false
	tb.Sim.Go("r", func(p *sim.Proc) {
		f := tb.Machines[0].Client.OpenExisting(4 << 20)
		// One chunk is enough to launch the window; close immediately.
		f.ReadAt(p, 0, 8192)
		f.Close(p)
		if got := tb.Machines[0].Client.OpenInodes(); got != 0 {
			t.Errorf("open inodes after close = %d", got)
		}
		done = true
	})
	// Drain the whole event queue, including the straggler READ replies.
	tb.Sim.Run(5 * time.Minute)
	if !done {
		t.Fatal("run did not finish")
	}
}

// The resident-page set is a rangeset, not a per-page map: sequential
// coverage must collapse to a single span, and random coverage must
// fragment and then coalesce as the holes fill — with byte-identical
// hit/miss behavior either way.
func TestResidentSetCoalesces(t *testing.T) {
	tb := newBed(t, nfssim.ServerFiler, core.EnhancedConfig())
	f := tb.Machines[0].Client.Open()
	tb.Sim.Go("w", func(p *sim.Proc) {
		// Sequential writes: one growing span.
		f.WriteAt(p, 0, 64<<10)
		if spans := f.Inode().ResidentSpans(); spans != 1 {
			t.Errorf("sequential write left %d resident spans, want 1", spans)
		}
		if got := f.Inode().CachedPages(); got != 16 {
			t.Errorf("cached pages = %d, want 16", got)
		}
		// Random-order page writes into the second half: fragmented while
		// holes remain, one span once coverage completes.
		base := int64(64 << 10)
		for _, pg := range []int64{7, 1, 5, 3} {
			f.WriteAt(p, base+pg*8192, 8192)
		}
		if spans := f.Inode().ResidentSpans(); spans != 5 { // head run + 4 islands
			t.Errorf("fragmented resident set has %d spans, want 5", spans)
		}
		for _, pg := range []int64{0, 2, 4, 6} {
			f.WriteAt(p, base+pg*8192, 8192)
		}
		if spans := f.Inode().ResidentSpans(); spans != 1 {
			t.Errorf("complete coverage left %d spans, want 1", spans)
		}
		if got := f.Inode().CachedPages(); got != 32 {
			t.Errorf("cached pages = %d, want 32", got)
		}
		// Reading back everything hits memory: no RPCs, no misses.
		if got := f.ReadAt(p, 0, 128<<10); got != 128<<10 {
			t.Errorf("read back %d bytes", got)
		}
		if tb.Machines[0].Client.RPCs(nfsproto.ProcRead) != 0 || tb.Machines[0].Cache.ReadMisses != 0 {
			t.Errorf("read-after-write fetched: %d RPCs, %d misses",
				tb.Machines[0].Client.RPCs(nfsproto.ProcRead), tb.Machines[0].Cache.ReadMisses)
		}
	})
	tb.Sim.Run(5 * time.Minute)
}

// Random chunk writes on the stock client must reach MAX_REQUEST_SOFT
// like sequential ones (request counts are what the limits bound, not
// adjacency), and with a wsize above the chunk size the non-adjacent
// backlog must defeat coalescing: more, smaller WRITE RPCs than the
// sequential run needs for the same bytes.
func TestRandWriteFragmentationOnStockClient(t *testing.T) {
	run := func(wl bonnie.Workload) (*nfssim.Testbed, *bonnie.Result) {
		cfg := core.Stock244Config()
		cfg.WSize = 32768 // 8 pages: sequential runs coalesce, random cannot
		tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler, Client: cfg, Seed: 3})
		res := bonnie.RunWorkload(tb.Sim, "t", tb.Machines[0].OpenSet(), bonnie.Config{
			FileSize: 4 << 20, Workload: wl, TimeLimit: 10 * time.Minute,
		})
		return tb, res
	}
	seqTB, _ := run(bonnie.WorkloadWrite)
	randTB, _ := run(bonnie.WorkloadRandWrite)
	if randTB.Machines[0].Client.SoftFlushes == 0 {
		t.Fatal("random writes never hit the soft limit on the stock client")
	}
	if seqRPCs, randRPCs := seqTB.Machines[0].Client.RPCs(nfsproto.ProcWrite), randTB.Machines[0].Client.RPCs(nfsproto.ProcWrite); randRPCs <= seqRPCs {
		t.Fatalf("random writes sent %d RPCs vs %d sequential; fragmentation should defeat coalescing",
			randRPCs, seqRPCs)
	}
	if seq, rand := seqTB.Machines[0].Client.PagesSent, randTB.Machines[0].Client.PagesSent; seq != rand {
		t.Fatalf("page counts differ: %d sequential vs %d random", seq, rand)
	}
}
