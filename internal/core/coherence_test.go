package core_test

import (
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/core"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// sharedBed builds a two-machine test bed mounted on one export, so
// names opened on either machine resolve to the same server files.
func sharedBed(t *testing.T, mode core.ConsistencyMode) *nfssim.Testbed {
	t.Helper()
	cfg := core.EnhancedConfig()
	cfg.Consistency = mode
	return nfssim.NewTestbed(nfssim.Options{
		Server:          nfssim.ServerFiler,
		Client:          cfg,
		Clients:         2,
		SharedNamespace: true,
		Seed:            3,
	})
}

// TestNamedInodePersistsAcrossOpenClose pins the inode-cache behavior
// the coherence workloads depend on: closing a file opened by name
// keeps its pages resident, so a reopen reads from memory — while the
// flushd scan table still drains to zero.
func TestNamedInodePersistsAcrossOpenClose(t *testing.T) {
	tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler, Client: core.EnhancedConfig(), Seed: 3})
	c := tb.Machines[0].Client
	tb.Sim.Go("w", func(p *sim.Proc) {
		f := c.OpenByName(p, "shared0")
		f.(*core.File).WriteAt(p, 0, 8*4096)
		f.Close(p)
		if got := c.OpenInodes(); got != 0 {
			t.Errorf("%d inodes in the scan table after close, want 0", got)
		}

		g := c.OpenByName(p, "shared0")
		if got := g.(*core.File).Inode().CachedPages(); got != 8 {
			t.Errorf("reopen found %d resident pages, want 8", got)
		}
		before := c.RPCs(nfsproto.ProcRead)
		if got := g.ReadAt(p, 0, 8*4096); got != 8*4096 {
			t.Errorf("short read: %d", got)
		}
		if c.RPCs(nfsproto.ProcRead) != before {
			t.Errorf("reread of cached pages issued %d READ RPCs", c.RPCs(nfsproto.ProcRead)-before)
		}
		g.Close(p)
	})
	tb.Sim.Run(time.Hour)
}

// TestStrictOpenNeverServesStale pins the strict mode's contract: every
// open revalidates at the server, a foreign write is therefore noticed
// at the next open (pages invalidated, refetched), and no read is ever
// served from superseded cache.
func TestStrictOpenNeverServesStale(t *testing.T) {
	tb := sharedBed(t, core.ConsistencyStrict)
	reader, writer := tb.Machines[0].Client, tb.Machines[1].Client
	const size = 8 * 4096
	tb.Sim.Go("rw", func(p *sim.Proc) {
		// Writer populates the file; reader pulls it into cache.
		w := writer.OpenByName(p, "hot")
		w.(*core.File).WriteAt(p, 0, size)
		w.Close(p)
		r := reader.OpenByName(p, "hot")
		r.ReadAt(p, 0, size)
		r.Close(p)

		// Foreign write; strict reader must refetch on reopen.
		w = writer.OpenByName(p, "hot")
		w.(*core.File).WriteAt(p, 0, size)
		w.Close(p)

		coldReads := reader.RPCs(nfsproto.ProcRead)
		r = reader.OpenByName(p, "hot")
		r.ReadAt(p, 0, size)
		r.Close(p)
		if reader.RPCs(nfsproto.ProcRead) == coldReads {
			t.Error("strict reopen after a foreign write served superseded pages from cache")
		}
		if reader.Invalidations == 0 {
			t.Error("strict reopen did not invalidate after a foreign write")
		}
	})
	tb.Sim.Run(time.Hour)
	if reader.StaleReads != 0 {
		t.Errorf("strict client counted %d stale reads, want 0", reader.StaleReads)
	}
	if reader.RPCs(nfsproto.ProcGetattr) == 0 {
		t.Error("strict client never issued a GETATTR")
	}
}

// TestNoacServesStaleReads pins the opposite extreme: a client that
// never revalidates keeps serving its cached pages after a foreign
// write, and every such hit is counted against the ground-truth probe.
func TestNoacServesStaleReads(t *testing.T) {
	tb := sharedBed(t, core.ConsistencyNoac)
	reader, writer := tb.Machines[0].Client, tb.Machines[1].Client
	const size = 8 * 4096
	tb.Sim.Go("rw", func(p *sim.Proc) {
		w := writer.OpenByName(p, "hot")
		w.(*core.File).WriteAt(p, 0, size)
		w.Close(p)
		r := reader.OpenByName(p, "hot")
		r.ReadAt(p, 0, size)
		r.Close(p)

		w = writer.OpenByName(p, "hot")
		w.(*core.File).WriteAt(p, 0, size)
		w.Close(p)

		warmReads := reader.RPCs(nfsproto.ProcRead)
		r = reader.OpenByName(p, "hot")
		r.ReadAt(p, 0, size)
		r.Close(p)
		if reader.RPCs(nfsproto.ProcRead) != warmReads {
			t.Error("noac reopen went back to the server")
		}
	})
	tb.Sim.Run(time.Hour)
	if reader.StaleReads != 8 {
		t.Errorf("noac client counted %d stale reads, want 8 (every cached page of the second pass)", reader.StaleReads)
	}
	if reader.Invalidations != 0 {
		t.Errorf("noac client invalidated %d times, want 0", reader.Invalidations)
	}
}

// TestWccPreOpInvalidatesBetweenWriters pins weak cache consistency on
// the write path itself: when a WRITE reply's pre-op change attribute
// is newer than everything this client has seen, a foreign writer got
// in between, and the cached pages must drop — except the span the
// reply itself covered and anything durability still needs.
func TestWccPreOpInvalidatesBetweenWriters(t *testing.T) {
	tb := sharedBed(t, core.ConsistencyTTL)
	a, b := tb.Machines[0].Client, tb.Machines[1].Client
	tb.Sim.Go("ab", func(p *sim.Proc) {
		// A writes and fully commits four pages; its changeSeen is the
		// server's current counter and its unstable set is empty.
		fa := a.OpenByName(p, "both")
		fa.(*core.File).WriteAt(p, 0, 4*4096)
		fa.Flush(p)

		// B sneaks a write into the same file.
		fb := b.OpenByName(p, "both")
		fb.(*core.File).WriteAt(p, 10*4096, 4096)
		fb.Close(p)

		// A's next write reply carries B's counter in its pre-op arm.
		if a.Invalidations != 0 {
			t.Errorf("premature invalidation: %d", a.Invalidations)
		}
		fa.(*core.File).WriteAt(p, 5*4096, 4096)
		fa.Flush(p)
		if a.Invalidations == 0 {
			t.Error("wcc pre-op mismatch did not invalidate")
		}
		// Pages 0-3 dropped; page 5 (the reply's own span) kept.
		ino := fa.(*core.File).Inode()
		if got := ino.CachedPages(); got != 1 {
			t.Errorf("%d pages resident after wcc invalidation, want 1 (the write's own span)", got)
		}
		fa.Close(p)
	})
	tb.Sim.Run(time.Hour)
	if a.ChangeRegressions != 0 || b.ChangeRegressions != 0 {
		t.Errorf("change regressions counted on a healthy server: a=%d b=%d", a.ChangeRegressions, b.ChangeRegressions)
	}
}
