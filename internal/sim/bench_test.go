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

// BenchmarkKernelTimerCancel measures timer churn in the UDP retransmit
// pattern: 16 processes that each arm a 1.1 s timer, sleep 200 µs for
// the reply and cancel the timer. One op is one timeout's worth of
// virtual time, 5,500 calls per process, so even CI's single iteration
// runs long enough for canceled timers to pile up in a queue that kept
// them until they came due. events/s counts the wakeups and timers
// handled.
func BenchmarkKernelTimerCancel(b *testing.B) {
	const (
		procs   = 16
		timeout = 1100 * time.Millisecond
		reply   = 200 * time.Microsecond
	)
	s := sim.New(1)
	defer s.Close()
	calls := b.N * int(timeout/reply)
	total := 0
	noop := func() {}
	for i := 0; i < procs; i++ {
		s.Go("caller", func(p *sim.Proc) {
			for j := 0; j < calls; j++ {
				timer := s.After(timeout, noop)
				p.Sleep(reply)
				timer.Cancel()
				total++
			}
		})
	}
	b.ResetTimer()
	s.Run(0)
	b.ReportMetric(float64(2*total)/b.Elapsed().Seconds(), "events/s")
}
