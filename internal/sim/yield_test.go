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
// tens of thousands of events later.
func TestRunYieldsToOtherGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := sim.New(1)
	var ran atomic.Bool
	fired, firedWhenRan := 0, -1
	var tick func()
	tick = func() {
		fired++
		if firedWhenRan < 0 && ran.Load() {
			firedWhenRan = fired
		}
		if fired < 20_000 {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(time.Microsecond, tick)
	go ran.Store(true)
	s.Run(0)
	if firedWhenRan < 0 || firedWhenRan > 1024 {
		t.Fatalf("another goroutine first ran after %d of %d events", firedWhenRan, fired)
	}
}
