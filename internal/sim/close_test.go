package sim

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/racebuild"
)

// Close must unwind a process parked in every blocking primitive, run its
// deferred calls, free its coroutine and leave nothing live.
func TestCloseEndsParkedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(1)
	m := s.NewMutex("m")
	sem := s.NewSemaphore("sem", 1)
	q := s.NewWaitQueue("q")
	unwound := 0
	park := func(name string, block func(p *Proc)) {
		s.Go(name, func(p *Proc) {
			defer func() { unwound++ }()
			block(p)
			t.Errorf("%s returned from a block nothing ends", name)
		})
	}
	s.Go("holder", func(p *Proc) {
		m.Lock(p, NewLabel("held"))
		sem.Acquire(p)
	})
	park("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	park("locker", func(p *Proc) { m.Lock(p, NewLabel("wait")) })
	park("acquirer", func(p *Proc) { sem.Acquire(p) })
	park("waiter", func(p *Proc) { q.Wait(p) })
	s.Run(time.Millisecond)
	if s.Live() != 4 {
		t.Fatalf("live = %d before Close, want 4 parked", s.Live())
	}
	s.Go("unstarted", func(p *Proc) { t.Error("a process spawned after the last Run ran") })

	s.Close()
	if s.Live() != 0 {
		t.Fatalf("live = %d after Close", s.Live())
	}
	if unwound != 4 {
		t.Fatalf("%d of 4 parked processes ran their deferred calls", unwound)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("goroutines = %d after Close, want the baseline %d", n, base)
	}
	s.Close() // idempotent
	if s.Live() != 0 || runtime.NumGoroutine() != base {
		t.Fatal("second Close changed state")
	}
}

// A closed sim's event storage is reused by the next New; a stale handle
// from the closed sim must not cancel the event now occupying its entry.
func TestClosedSimHandleCannotCancelReusedEvent(t *testing.T) {
	a := New(1)
	stale := a.At(time.Millisecond, func() { t.Error("closed sim's event fired") })
	a.Close()

	b := New(1)
	defer b.Close()
	fired := false
	fresh := b.At(time.Millisecond, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatal("New did not reuse the closed sim's event storage; the test proves nothing")
	}
	stale.Cancel()
	b.Run(0)
	if !fired {
		t.Fatal("a stale handle canceled the reused event")
	}
}

// Once the pool and heap have grown, passing control between processes —
// through Run and inline in park — and returning at the limit allocate
// nothing, and neither does a sleep that moves the clock in place.
func TestSteadyStateHandoffAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("the race detector instruments coroutine switches")
	}
	s := New(1)
	defer s.Close()
	for i := 1; i <= 3; i++ {
		d := Time(i) * time.Microsecond
		s.Go("ticker", func(p *Proc) {
			for {
				p.Sleep(d)
			}
		})
	}
	var limit Time
	step := func() {
		limit += time.Millisecond
		s.Run(limit)
	}
	step()
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Fatalf("steady-state handoff allocates %v per millisecond", n)
	}

	// A CPU charge on a free processor, with a retransmit timer armed
	// behind it, moves the clock in place: nothing is allocated and
	// nothing is queued.
	cs := New(1)
	defer cs.Close()
	cpus := cs.NewCPUPool("cpus", 1)
	work := NewLabel("work")
	cs.After(1100*time.Millisecond, func() {})
	var allocs float64
	queued := -1
	cs.Go("caller", func(p *Proc) {
		use := func() { cpus.Use(p, work, time.Microsecond) }
		use()
		n := cs.QueueLen()
		allocs = testing.AllocsPerRun(100, use)
		queued = cs.QueueLen() - n
	})
	cs.Run(0)
	if allocs != 0 {
		t.Fatalf("CPUPool.Use on a free CPU allocates %v", allocs)
	}
	if queued != 0 {
		t.Fatalf("CPUPool.Use on a free CPU changed the queue length by %d", queued)
	}
}

// Simulations closed and created on several goroutines at once pass
// event storage between them; each must still see only its own events.
func TestConcurrentSimsReuseStorage(t *testing.T) {
	run := func() Time {
		s := New(1)
		defer s.Close()
		m := s.NewMutex("m")
		var last Time
		for i := 0; i < 4; i++ {
			s.Go("p", func(p *Proc) {
				for j := 0; j < 50; j++ {
					p.Sleep(Time(s.Rand().Intn(100)) * time.Microsecond)
					m.Lock(p, NewLabel("x"))
					p.Sleep(time.Microsecond)
					m.Unlock(p)
					last = s.Now()
				}
			})
		}
		s.Go("daemon", func(p *Proc) { p.Sleep(time.Hour) }) // left for Close
		s.Run(time.Minute)
		return last
	}
	want := run()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := run(); got != want {
					t.Errorf("run ended its work at %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
