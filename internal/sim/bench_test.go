package sim_test

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// BenchmarkKernelSchedule measures the raw event-queue path: schedule a
// timer, pop it, run its callback, schedule the next — no processes, no
// handoffs. This is the floor every simulated microsecond pays.
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

// BenchmarkKernelCPUUse measures the kernel's commonest call: one process
// charging 10 µs of CPU on a free processor between arming a 1.1 s
// retransmit-style timer and canceling it, as an RPC caller does. The
// sleeper's own wakeup is always the next event, so the charge moves the
// clock in place.
func BenchmarkKernelCPUUse(b *testing.B) {
	s := sim.New(1)
	defer s.Close()
	cpus := s.NewCPUPool(1)
	work := sim.NewLabel("work")
	noop := func() {}
	call := func(p *sim.Proc) {
		timer := s.After(1100*time.Millisecond, noop)
		cpus.Use(p, work, 10*time.Microsecond)
		timer.Cancel()
	}
	s.Go("caller", func(p *sim.Proc) {
		call(p) // grow the event pool and the profiler first
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			call(p)
		}
		b.StopTimer()
	})
	s.Run(0)
}

// BenchmarkKernelSaturatedLink measures the lane path at the fleet
// server's shape: a 100 Mb/s link kept 1,000 datagrams deep, each armed
// with a 1.1 s retransmit timer that its delivery cancels, and each
// delivery sending the next datagram. Deliveries and timers wait in
// lanes, so the heap holds two heads however deep the link. One op is
// 1,000 deliveries.
func BenchmarkKernelSaturatedLink(b *testing.B) {
	const window = 1000
	s := sim.New(1)
	defer s.Close()
	net := netsim.New(s)
	payload := make([]byte, 8300)
	var timers [window]sim.Event
	sent, delivered, total := 0, 0, b.N*window
	noop := func() {}
	send := func() {
		net.Send(netsim.Datagram{From: "client", To: "server", Payload: payload})
		timers[sent%window] = s.AfterFixed(1100*time.Millisecond, noop)
		sent++
	}
	net.AddHost("client", saturatedLink, nil)
	net.AddHost("server", saturatedLink, func(netsim.Datagram) {
		timers[delivered%window].Cancel()
		delivered++
		if sent < total {
			send()
		}
	})
	for range window {
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(0)
	b.ReportMetric(float64(2*delivered)/b.Elapsed().Seconds(), "events/s")
}
