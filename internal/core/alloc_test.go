package core_test

import (
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/core"
	"repro/internal/nfsproto"
	"repro/internal/racebuild"
	"repro/internal/sim"
)

// A warmed client writing steadily allocates nothing per page or per
// RPC: each cycle is an 8 KiB write, the WRITE flushd sends for it once
// the two pages reach the watermark, and that WRITE's reply. The page
// requests come from the simulation's record stock and go back to it
// when the run is popped, and the WRITE's args and reply callback live
// in a recycled call record.
func TestSteadyStateWriteCycleAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler, Client: core.EnhancedConfig(), Seed: 3})
	s, c := tb.Sim, tb.Machines[0].Client
	c.SetFlushdWatermark(2)
	f := c.Open()
	start := s.NewWaitQueue()
	s.Go("writer", func(p *sim.Proc) {
		for {
			start.Wait(p)
			f.WriteAt(p, f.Size(), 8192)
		}
	})
	s.Run(s.Now() + time.Millisecond) // park the writer
	cycle := func() {
		start.Signal()
		s.Run(s.Now() + 5*time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		cycle() // warm the free lists, pools and queues
	}
	rpcs, pages := c.RPCs(nfsproto.ProcWrite), c.PagesSent
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("an 8 KiB write cycle costs %.2f allocations", n)
	}
	// AllocsPerRun runs the cycle once more as its own warm-up.
	if c.RPCs(nfsproto.ProcWrite)-rpcs != 101 || c.PagesSent-pages != 202 || c.MountRequests() != 0 {
		t.Fatalf("sent %d WRITEs of %d pages with %d requests outstanding, want one 2-page WRITE per cycle, all replied",
			c.RPCs(nfsproto.ProcWrite)-rpcs, c.PagesSent-pages, c.MountRequests())
	}
	if got := f.Size(); got != 121*8192 {
		t.Fatalf("file size %d", got)
	}
}
