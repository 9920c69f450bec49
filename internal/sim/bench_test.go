package sim_test

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// BenchmarkKernelSchedule measures the raw event-queue path: schedule a
// timer, pop it, run its callback, schedule the next — no processes, no
// handoffs. This is the floor every simulated microsecond pays, so the
// CI wall-clock gate watches its ns/op.
func BenchmarkKernelSchedule(b *testing.B) {
	s := sim.New(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(time.Microsecond, tick)
	b.ResetTimer()
	s.Run(0)
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkKernelFleetHandoff measures the scheduler↔process handoff at
// fleet shape: 1000 processes sleeping staggered intervals, so nearly
// every event is a switch between process coroutines (the dominant
// kernel cost of a thousand-client simulation).
func BenchmarkKernelFleetHandoff(b *testing.B) {
	const procs = 1000
	s := sim.New(1)
	each := b.N/procs + 1
	total := 0
	for i := 0; i < procs; i++ {
		d := time.Duration(i%7+1) * time.Microsecond
		s.Go("proc", func(p *sim.Proc) {
			for j := 0; j < each; j++ {
				p.Sleep(d)
				total++
			}
		})
	}
	b.ResetTimer()
	s.Run(0)
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/s")
}
