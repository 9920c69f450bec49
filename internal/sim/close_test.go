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
	cpus := s.NewCPUPool(1)
	q := s.NewWaitQueue()
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
		cpus.acquire(p)
	})
	park("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	park("locker", func(p *Proc) { m.Lock(p, NewLabel("wait")) })
	park("acquirer", func(p *Proc) { cpus.acquire(p) })
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
// from the closed sim must not cancel the event now occupying its entry,
// whether that event waited in the heap or in the middle of a lane.
func TestClosedSimHandleCannotCancelReusedEvent(t *testing.T) {
	var lane Lane
	for _, c := range []struct {
		name  string
		queue func(a *Sim, fn func()) Event
	}{
		{"heap", func(a *Sim, fn func()) Event { return a.At(time.Millisecond, fn) }},
		{"mid-lane", func(a *Sim, fn func()) Event {
			a.LaneAt(&lane, time.Millisecond, fn)
			mid := a.LaneAt(&lane, 2*time.Millisecond, fn)
			a.LaneAt(&lane, 3*time.Millisecond, fn)
			return mid
		}},
	} {
		a := New(1)
		stale := c.queue(a, func() { t.Errorf("%s: closed sim's event fired", c.name) })
		a.Close()
		if lane != (Lane{}) {
			t.Fatalf("%s: Close left the lane holding recycled events", c.name)
		}

		b := New(1)
		fired, reused := 0, false
		for range 3 {
			fresh := b.LaneAt(&lane, time.Millisecond, func() { fired++ })
			reused = reused || fresh.ev == stale.ev
		}
		if !reused {
			t.Fatalf("%s: New did not reuse the closed sim's event storage; the test proves nothing", c.name)
		}
		stale.Cancel()
		b.Run(0)
		b.Close()
		if fired != 3 {
			t.Fatalf("%s: a stale handle canceled a reused event: %d of 3 fired", c.name, fired)
		}
	}
}

// Close gives every event the simulation allocated back to the spare
// pool, cleared, wherever it was queued: in the heap, behind a lane's
// head, at a fixed delay or in the ready FIFO.
func TestCloseRecyclesEveryEvent(t *testing.T) {
	spares.mu.Lock()
	spares.stores = nil // so New starts from an empty pool
	spares.mu.Unlock()

	s := New(1)
	fn := func() {}
	var lane Lane
	for i := range 300 {
		s.LaneAt(&lane, Time(i)*time.Microsecond, fn)
		if i%3 == 0 {
			s.At(Time(i)*time.Microsecond, fn)
			s.AfterFixed(Time(i%5)*time.Second, fn)
		}
	}
	q := s.NewWaitQueue()
	for range 20 {
		s.Go("waiter", func(p *Proc) { q.Wait(p) })
	}
	s.Run(100 * time.Microsecond)
	q.Broadcast() // after the Run, so the wakeups stay in the ready FIFO
	s.Go("unstarted", func(p *Proc) {})
	if n := s.QueueLen() - s.HeapLen(); n < 200 {
		t.Fatalf("only %d events wait outside the heap", n)
	}
	allocated := len(s.pool) + s.QueueLen()
	if allocated == 0 || allocated%eventBlock != 0 {
		t.Fatalf("%d events pooled or queued, not a whole number of %d-event blocks", allocated, eventBlock)
	}
	s.Close()
	if lane != (Lane{}) || s.ready != (Lane{}) {
		t.Fatal("Close left a lane or the ready FIFO holding recycled events")
	}
	for i := range s.ndelays {
		if s.delays[i].lane != (Lane{}) {
			t.Fatalf("Close left fixed-delay lane %v holding recycled events", s.delays[i].d)
		}
	}

	st := takeSpare()
	seen := make(map[*event]bool)
	for _, ev := range st.pool {
		if seen[ev] {
			t.Fatal("an event is pooled twice")
		}
		seen[ev] = true
		if ev.proc != nil || ev.fn != nil || ev.lane != nil || ev.prev != nil || ev.next != nil {
			t.Fatalf("a pooled event still references a process, callback or lane: %+v", *ev)
		}
	}
	if len(seen) != allocated {
		t.Fatalf("Close pooled %d of the %d events the simulation allocated", len(seen), allocated)
	}
}

// Once the pool and heap have grown, passing control between processes —
// through Run, inline in park and through the ready FIFO — and returning
// at the limit allocate nothing, and neither does a sleep that moves the
// clock in place.
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
	// Two processes contending for a mutex hand it over through the
	// ready FIFO.
	m := s.NewMutex("m")
	held := NewLabel("held")
	for range 2 {
		s.Go("locker", func(p *Proc) {
			for {
				m.Lock(p, held)
				p.Sleep(2 * time.Microsecond)
				m.Unlock(p)
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
	cpus := cs.NewCPUPool(1)
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

// Close hands a simulation's stocks to the next New, while simulations
// open at the same time each get their own.
func TestCloseHandsOnStocks(t *testing.T) {
	spares.mu.Lock()
	spares.stores = nil // so the next New takes a's storage
	spares.mu.Unlock()
	type records struct{ free []int }
	kind := NewStock[records]()

	a := New(1)
	st := kind.Of(a)
	if kind.Of(a) != st {
		t.Fatal("Of made a second stock for one simulation")
	}
	st.free = append(st.free, 7)
	b := New(2)
	if kind.Of(b) == st {
		t.Fatal("two open simulations share a stock")
	}
	a.Close()
	if kind.Of(a) == st {
		t.Fatal("a closed simulation still reaches the stock it handed on")
	}
	c := New(3)
	if got := kind.Of(c); got != st || len(got.free) != 1 {
		t.Fatalf("New got stock %p holding %v, want the closed simulation's %p", got, got.free, st)
	}
	b.Close()
	c.Close()
}
