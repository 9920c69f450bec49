package sim_test

import (
	"container/heap"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/racebuild"
	"repro/internal/sim"
)

// These tests pin the event queue's contract: events fire in (time,
// schedule-order) order — the exact total order the old container/heap
// kernel used — the queue holds only live events, and Cancel is safe
// before, after, and long after an event fires, including once its
// pooled object has been recycled.

// TestSameTimestampFIFO schedules batches at equal timestamps in several
// interleavings; within a timestamp, firing order must be insertion
// order regardless of how timestamps interleave at insert time.
func TestSameTimestampFIFO(t *testing.T) {
	// Each case lists (timestamp, id) pairs in insertion order.
	cases := [][][2]int{
		{{5, 0}, {5, 1}, {5, 2}, {5, 3}},
		{{5, 0}, {3, 1}, {5, 2}, {3, 3}, {5, 4}},
		{{9, 0}, {1, 1}, {9, 2}, {1, 3}, {5, 4}, {5, 5}, {9, 6}},
		{{2, 0}, {2, 1}, {1, 2}, {1, 3}, {2, 4}, {1, 5}},
	}
	for ci, ins := range cases {
		s := sim.New(1)
		var fired [][2]int
		for _, pair := range ins {
			at, id := pair[0], pair[1]
			s.At(sim.Time(at)*time.Microsecond, func() { fired = append(fired, [2]int{at, id}) })
		}
		s.Run(0)
		// Expected: stable sort of the insertion list by timestamp.
		want := make([][2]int, len(ins))
		copy(want, ins)
		for i := 1; i < len(want); i++ { // insertion sort = stable
			for j := i; j > 0 && want[j-1][0] > want[j][0]; j-- {
				want[j-1], want[j] = want[j], want[j-1]
			}
		}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("case %d: fired %v, want %v", ci, fired, want)
		}
	}
}

// TestCancelThenFire covers the cancellation lifecycle: cancel before
// fire suppresses the event, cancel after fire is a no-op, and a stale
// handle must not kill a later event that recycled the same pooled
// object (the generation check).
func TestCancelThenFire(t *testing.T) {
	s := sim.New(1)
	var fired []string
	a := s.At(1*time.Microsecond, func() { fired = append(fired, "a") })
	b := s.At(2*time.Microsecond, func() { fired = append(fired, "b") })
	s.At(3*time.Microsecond, func() { fired = append(fired, "c") })
	b.Cancel()
	b.Cancel() // double cancel is fine
	s.Run(0)
	if want := []string{"a", "c"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}

	// a's event object is back in the pool; new events reuse it with a
	// bumped generation. The stale handle must be inert.
	fired = nil
	for i := 0; i < 8; i++ {
		s.At(time.Microsecond, func() { fired = append(fired, "d") })
	}
	a.Cancel()
	s.Run(0)
	if len(fired) != 8 {
		t.Fatalf("stale Cancel killed a recycled event: fired %v", fired)
	}

	// Cancelling from within an earlier event at the same timestamp
	// still suppresses the later one (it has not run yet).
	fired = nil
	var victim sim.Event
	s.At(time.Microsecond, func() {
		fired = append(fired, "e")
		victim.Cancel()
	})
	victim = s.At(time.Microsecond, func() { fired = append(fired, "f") })
	s.Run(0)
	if want := []string{"e"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestCancelInsideCallbacks covers handles used from within callbacks: a
// callback's own handle is already spent when it runs, even once a child
// it schedules has reused the event's pooled object; it can cancel other
// pending handles, twice over; and every cancel takes the event out of
// the queue at once.
func TestCancelInsideCallbacks(t *testing.T) {
	s := sim.New(1)
	var fired []string
	var self, victim, child sim.Event
	self = s.At(time.Microsecond, func() {
		fired = append(fired, "self")
		child = s.At(s.Now(), func() { fired = append(fired, "child") })
		self.Cancel() // spent, and its entry may now be child's
		victim.Cancel()
		victim.Cancel()
		if n := s.QueueLen(); n != 2 {
			t.Errorf("queue holds %d events after the cancels, want child and last", n)
		}
	})
	victim = s.At(2*time.Microsecond, func() { fired = append(fired, "victim") })
	s.At(3*time.Microsecond, func() { fired = append(fired, "last") })
	s.Run(0)
	if want := []string{"self", "child", "last"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for _, h := range []sim.Event{self, victim, child} {
		h.Cancel() // fired or canceled already: inert
	}

	// After Close every handle is inert, including one whose event was
	// still queued, and New may reuse the storage it pointed into.
	pending := s.At(time.Hour, func() { t.Error("event of a closed sim fired") })
	s.Close()
	pending.Cancel()
	pending.Cancel()
	next := sim.New(1)
	defer next.Close()
	ran := false
	next.At(time.Microsecond, func() { ran = true })
	pending.Cancel()
	next.Run(0)
	if !ran {
		t.Fatal("a handle from a closed sim canceled a later sim's event")
	}
}

// TestRunLimitIgnoresCanceledEvents pins Run's clock when only canceled
// events lie beyond the limit. They are no longer in the queue, so the
// queue has drained: Run returns with the clock at the last event that
// fired rather than at the limit, and the simulation is idle.
func TestRunLimitIgnoresCanceledEvents(t *testing.T) {
	s := sim.New(1)
	s.At(time.Millisecond, func() {})
	timer := s.At(time.Second, func() { t.Error("canceled timer fired") })
	timer.Cancel()
	if end := s.Run(100 * time.Millisecond); end != time.Millisecond {
		t.Fatalf("Run returned at %v, want the last event's time %v", end, time.Millisecond)
	}
	if !s.Idle() {
		t.Fatal("a canceled event kept the simulation busy")
	}

	// A live event beyond the limit still holds the clock at the limit.
	s.At(time.Second, func() {})
	if end := s.Run(200 * time.Millisecond); end != 200*time.Millisecond {
		t.Fatalf("Run returned at %v, want the limit", end)
	}
}

// TestScheduleCancelAllocatesNothing pins the retransmit-timer pattern:
// once the event pool has grown, arming a timer and canceling it
// allocates nothing.
func TestScheduleCancelAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("the race detector adds allocations of its own")
	}
	s := sim.New(1)
	defer s.Close()
	fn := func() { t.Error("canceled timer fired") }
	armCancel := func() { s.After(time.Second, fn).Cancel() }
	armCancel()
	if n := testing.AllocsPerRun(100, armCancel); n != 0 {
		t.Fatalf("a schedule/cancel pair costs %.2f allocations", n)
	}
	if n := s.QueueLen(); n != 0 {
		t.Fatalf("canceled timers left %d events queued", n)
	}
}

// TestCancelAnywhereKeepsOrder cancels events from every depth of a
// large queue in random order, so the entry moved into each hole must
// sometimes sift up and sometimes down. The survivors must fire in
// exactly (time, schedule-order) order, and the queue must shrink by one
// per cancel.
func TestCancelAnywhereKeepsOrder(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New(seed)
		const n = 2000
		type sched struct {
			at time.Duration
			id int
		}
		var fired []int
		handles := make([]sim.Event, n)
		all := make([]sched, n)
		for id := range handles {
			at := time.Duration(rng.Intn(500)) * time.Microsecond
			all[id] = sched{at, id}
			handles[id] = s.At(at, func() { fired = append(fired, id) })
		}
		canceled := make(map[int]bool)
		for k, id := range rng.Perm(n)[:n/2] {
			handles[id].Cancel()
			canceled[id] = true
			if got, want := s.QueueLen(), n-k-1; got != want {
				t.Fatalf("seed %d: %d events queued after %d cancels, want %d", seed, got, k+1, want)
			}
		}
		s.Run(0)
		var want []int
		sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
		for _, e := range all {
			if !canceled[e.id] {
				want = append(want, e.id)
			}
		}
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("seed %d: survivors fired out of (time, schedule) order", seed)
		}
	}
}

// refHeap is the old kernel's event queue: a container/heap binary heap
// ordered by (at, seq) with lazy-cancelled dead events. The randomized
// cross-check below replays identical schedules through it.
type refEvent struct {
	at   int64
	seq  int
	id   int
	dead bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestRandomizedScheduleMatchesReferenceHeap drives the kernel with a
// pseudo-random schedule — every fired event may spawn children at
// random future offsets and cancel a pending sibling — and replays the
// same decision stream through the container/heap reference. The firing
// sequences must match exactly, and after every step the kernel's queue
// must hold exactly the live events: those scheduled, not yet fired and
// not canceled, which the reference counts as its non-dead entries.
func TestRandomizedScheduleMatchesReferenceHeap(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		const initial = 40
		const maxID = 400

		// decisions(id) derives an event's behaviour purely from its id,
		// so the sim run and the reference replay make identical choices.
		type decision struct {
			children []int64 // child delays in microseconds
			cancel   int     // id of the event to cancel, -1 for none
		}
		decisions := func(id int) decision {
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
			var d decision
			for i, n := 0, rng.Intn(3); i < n; i++ {
				d.children = append(d.children, int64(rng.Intn(7))) // 0 delays exercise same-timestamp ties
			}
			d.cancel = -1
			if rng.Intn(4) == 0 {
				d.cancel = rng.Intn(maxID)
			}
			return d
		}

		// Simulation run.
		s := sim.New(seed)
		var simFired, simLive []int
		handles := make(map[int]sim.Event)
		pending := make(map[int]bool) // scheduled, not yet fired or canceled
		checkLive := func(step string) {
			if got := s.QueueLen(); got != len(pending) {
				t.Fatalf("seed %d: after %s the queue holds %d events, %d live", seed, step, got, len(pending))
			}
		}
		nextID := 0
		var schedule func(delay int64) // schedules the next id at now+delay
		schedule = func(delay int64) {
			id := nextID
			nextID++
			if id >= maxID {
				return
			}
			handles[id] = s.At(s.Now()+sim.Time(delay)*time.Microsecond, func() {
				simFired = append(simFired, id)
				delete(pending, id)
				checkLive("firing")
				d := decisions(id)
				if d.cancel >= 0 {
					if h, ok := handles[d.cancel]; ok {
						h.Cancel()
						delete(pending, d.cancel)
						checkLive("a cancel")
					}
				}
				for _, cd := range d.children {
					schedule(cd)
				}
				checkLive("scheduling")
				simLive = append(simLive, s.QueueLen())
			})
			pending[id] = true
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < initial; i++ {
			schedule(int64(rng.Intn(10)))
		}
		s.Run(0)

		// Reference replay with the identical decision stream.
		var h refHeap
		byID := make(map[int]*refEvent)
		var refFired, refLive []int
		refNext := 0
		seq := 0
		var now int64
		push := func(delay int64) {
			id := refNext
			refNext++
			if id >= maxID {
				return
			}
			e := &refEvent{at: now + delay, seq: seq, id: id}
			seq++
			byID[id] = e
			heap.Push(&h, e)
		}
		rng = rand.New(rand.NewSource(seed))
		for i := 0; i < initial; i++ {
			push(int64(rng.Intn(10)))
		}
		for h.Len() > 0 {
			e := heap.Pop(&h).(*refEvent)
			if e.dead {
				continue
			}
			now = e.at
			refFired = append(refFired, e.id)
			d := decisions(e.id)
			if d.cancel >= 0 {
				if victim, ok := byID[d.cancel]; ok {
					victim.dead = true
				}
			}
			for _, cd := range d.children {
				push(cd)
			}
			live := 0
			for _, e := range h {
				if !e.dead {
					live++
				}
			}
			refLive = append(refLive, live)
		}

		if !reflect.DeepEqual(simFired, refFired) {
			i := 0
			for i < len(simFired) && i < len(refFired) && simFired[i] == refFired[i] {
				i++
			}
			t.Fatalf("seed %d: firing order diverges from the reference heap at position %d (sim %v..., ref %v...)",
				seed, i, tailof(simFired, i), tailof(refFired, i))
		}
		if !reflect.DeepEqual(simLive, refLive) {
			t.Fatalf("seed %d: live event counts diverge from the reference heap", seed)
		}
	}
}

func tailof(xs []int, i int) []int {
	if i >= len(xs) {
		return nil
	}
	if len(xs) > i+5 {
		return xs[i : i+5]
	}
	return xs[i:]
}
