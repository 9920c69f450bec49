package sim_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/racebuild"
	"repro/internal/sim"
)

// TestProfilerTopDeterministic pins the profile report's order: Top
// sorts by (total desc, label asc), a total order, so the report is
// identical on every call even though the sort is unstable. Equal totals — common when the same cost
// constant is charged under different labels, and sensitive to event
// tie-breaking — must fall back to the label.
func TestProfilerTopDeterministic(t *testing.T) {
	s := sim.New(1)
	cpus := s.NewCPUPool("cpus", 2)
	// Three labels with identical totals via identical charge sequences,
	// interleaved across two procs, plus one clearly-largest label.
	s.Go("a", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			cpus.Use(p, sim.NewLabel("tie_c"), 5*time.Microsecond)
			cpus.Use(p, sim.NewLabel("tie_a"), 5*time.Microsecond)
			cpus.Use(p, sim.NewLabel("big"), 50*time.Microsecond)
		}
	})
	s.Go("b", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			cpus.Use(p, sim.NewLabel("tie_b"), 5*time.Microsecond)
		}
	})
	s.Run(0)

	first := s.Profiler().Top(0)
	if first[0].Label != "big" {
		t.Fatalf("largest consumer not first: %+v", first)
	}
	ties := first[1:]
	if want := []string{"tie_a", "tie_b", "tie_c"}; !(ties[0].Label == want[0] && ties[1].Label == want[1] && ties[2].Label == want[2]) {
		t.Fatalf("equal totals not in label order: %+v", ties)
	}
	if ties[0].Total != ties[1].Total || ties[1].Total != ties[2].Total {
		t.Fatalf("setup broken, totals differ: %+v", ties)
	}
	// Re-reading must reproduce the report bit for bit.
	for i := 0; i < 32; i++ {
		if got := s.Profiler().Top(0); !reflect.DeepEqual(got, first) {
			t.Fatalf("Top changed between calls:\n%+v\nvs\n%+v", got, first)
		}
	}
}

// TestProfileReportTable pins the report for a fixed workload: Top(0)
// sorts by total, then name, and lists only labels charged since the
// last Reset — a registered label that was never charged, or was charged
// only before the Reset, stays out — and String renders that order.
func TestProfileReportTable(t *testing.T) {
	var (
		send   = sim.NewLabel("sock_sendmsg")
		find   = sim.NewLabel("nfs_find_request")
		commit = sim.NewLabel("nfs_commit_write")
		gone   = sim.NewLabel("charged_before_reset")
	)
	sim.NewLabel("never_charged")
	s := sim.New(1)
	cpus := s.NewCPUPool("cpus", 2)
	s.Go("warmup", func(p *sim.Proc) { cpus.Use(p, gone, time.Millisecond) })
	s.Run(0)
	s.Profiler().Reset()
	s.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			cpus.Use(p, find, 4*time.Microsecond)
			cpus.Use(p, commit, 2*time.Microsecond)
		}
	})
	s.Go("flushd", func(p *sim.Proc) {
		cpus.Use(p, send, 12*time.Microsecond)
		cpus.Use(p, commit, 6*time.Microsecond)
	})
	s.Run(0)

	want := []sim.ProfileEntry{
		{Label: "nfs_commit_write", Total: 12 * time.Microsecond, Calls: 4},
		{Label: "nfs_find_request", Total: 12 * time.Microsecond, Calls: 3},
		{Label: "sock_sendmsg", Total: 12 * time.Microsecond, Calls: 1},
	}
	if got := s.Profiler().Top(0); !reflect.DeepEqual(got, want) {
		t.Fatalf("Top(0) = %+v, want %+v", got, want)
	}
	const table = `label                                      cpu time      calls
nfs_commit_write                               12µs          4
nfs_find_request                               12µs          3
sock_sendmsg                                   12µs          1
`
	if got := s.Profiler().String(); got != table {
		t.Fatalf("String() =\n%s\nwant\n%s", got, table)
	}
}

// Charging CPU time to an interned label allocates nothing once the
// event pool has grown.
func TestCPUUseAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("the race detector instruments coroutine switches")
	}
	s := sim.New(1)
	defer s.Close()
	cpus := s.NewCPUPool("cpus", 1)
	work := sim.NewLabel("work")
	s.Go("worker", func(p *sim.Proc) {
		for {
			cpus.Use(p, work, time.Microsecond)
		}
	})
	var limit sim.Time
	step := func() {
		limit += 100 * time.Microsecond
		s.Run(limit)
	}
	step()
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Fatalf("CPUPool.Use costs %.2f allocations per 100 calls", n)
	}
	if got := s.Profiler().Calls("work"); got == 0 {
		t.Fatal("no CPU time charged")
	}
}

// Sweep workers register and report labels on several goroutines at
// once; each profiler must still see exactly its own labels.
func TestLabelsFromManyGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr := sim.NewProfiler()
			for j := 0; j < 50; j++ {
				name := fmt.Sprintf("worker%d_path%02d", g, j)
				pr.Add(sim.NewLabel(name), time.Duration(j+1))
				if got := pr.Total(name); got != time.Duration(j+1) {
					t.Errorf("%s: total %v, want %v", name, got, time.Duration(j+1))
					return
				}
			}
			top := pr.Top(0)
			if len(top) != 50 || top[0].Label != fmt.Sprintf("worker%d_path49", g) {
				t.Errorf("worker %d: Top(0) has %d rows, first %+v", g, len(top), top[0])
			}
		}()
	}
	wg.Wait()
}
