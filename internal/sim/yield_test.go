package sim_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// The event loop yields to the Go scheduler every few hundred events, so
// other goroutines on the same P, such as the garbage collector's
// background mark worker, get the CPU while a long run is in progress.
// Coroutine switches alone never enter the scheduler: without the yield
// a goroutine started here would wait for sysmon's 10 ms preemption,
// tens of thousands of events later. A sleep that moves the clock in
// place counts as an event too.
func TestRunYieldsToOtherGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Each case calls next once per event, until it returns false.
	cases := []struct {
		name  string
		start func(s *sim.Sim, next func() bool)
	}{{
		name: "callbacks",
		start: func(s *sim.Sim, next func() bool) {
			var tick func()
			tick = func() {
				if next() {
					s.After(time.Microsecond, tick)
				}
			}
			s.After(time.Microsecond, tick)
		},
	}, {
		// A lone sleeper's wakeup is always the next event, so every
		// sleep takes the fast path and none enters the event loop.
		name: "fast-path sleeps",
		start: func(s *sim.Sim, next func() bool) {
			s.Go("sleeper", func(p *sim.Proc) {
				for next() {
					p.Sleep(time.Microsecond)
				}
			})
		},
	}}
	for _, c := range cases {
		s := sim.New(1)
		var ran atomic.Bool
		fired, firedWhenRan := 0, -1
		c.start(s, func() bool {
			fired++
			if firedWhenRan < 0 && ran.Load() {
				firedWhenRan = fired
			}
			return fired < 20_000
		})
		go ran.Store(true)
		s.Run(0)
		s.Close()
		if firedWhenRan < 0 || firedWhenRan > 1024 {
			t.Fatalf("%s: another goroutine first ran after %d of %d events", c.name, firedWhenRan, fired)
		}
	}
}
