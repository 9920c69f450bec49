package sim_test

import (
	"container/heap"
	"fmt"
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
// kernel used — whether they wait in the heap, in a lane or in the ready
// FIFO; the queue holds only live events; and Cancel is safe before,
// after, and long after an event fires, including once its pooled object
// has been recycled.

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
// allocates nothing — in the heap, as a lane's head, behind a lane's
// head and at a fixed delay.
func TestScheduleCancelAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("the race detector adds allocations of its own")
	}
	s := sim.New(1)
	defer s.Close()
	fn := func() { t.Error("canceled timer fired") }
	var empty, busy sim.Lane
	head := s.LaneAt(&busy, time.Second, fn)
	for _, c := range []struct {
		name      string
		armCancel func()
	}{
		{"heap", func() { s.After(time.Second, fn).Cancel() }},
		{"lane head", func() { s.LaneAt(&empty, time.Second, fn).Cancel() }},
		{"lane tail", func() { s.LaneAt(&busy, 2*time.Second, fn).Cancel() }},
		{"fixed delay", func() { s.AfterFixed(time.Second, fn).Cancel() }},
	} {
		c.armCancel()
		if n := testing.AllocsPerRun(100, c.armCancel); n != 0 {
			t.Errorf("%s: a schedule/cancel pair costs %.2f allocations", c.name, n)
		}
		if n := s.QueueLen(); n != 1 {
			t.Errorf("%s: canceled timers left %d events queued beside the lane's standing head", c.name, n-1)
		}
	}
	head.Cancel()
	if n := s.QueueLen(); n != 0 {
		t.Fatalf("%d events queued after the last cancel", n)
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
	proc bool // a process wakeup rather than a callback
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
// random future offsets, through At, one of two lanes or a fixed-delay
// timer, and cancel a pending sibling wherever it waits — and replays
// the same decision stream through the container/heap reference. The
// firing sequences must match exactly, and after every step the
// kernel's queue must hold exactly the live events: those scheduled, not
// yet fired and not canceled, which the reference counts as its non-dead
// entries.
func TestRandomizedScheduleMatchesReferenceHeap(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234} {
		const initial = 40
		const maxID = 400

		// decisions(id) derives an event's behaviour purely from its id,
		// so the sim run and the reference replay make identical choices.
		type child struct {
			delay int64 // microseconds
			via   int   // 0: At, 1 and 2: a lane, 3: AfterFixed
		}
		type decision struct {
			children []child
			cancel   int // id of the event to cancel, -1 for none
		}
		decisions := func(id int) decision {
			rng := rand.New(rand.NewSource(seed*1_000_003 + int64(id)))
			var d decision
			for i, n := 0, rng.Intn(3); i < n; i++ {
				// 0 delays exercise same-timestamp ties, and a lane child
				// due before its lane's tail falls back to the heap.
				d.children = append(d.children, child{int64(rng.Intn(7)), rng.Intn(4)})
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
		var lanes [2]sim.Lane
		var schedule func(c child) // schedules the next id at now+delay
		schedule = func(c child) {
			id := nextID
			nextID++
			if id >= maxID {
				return
			}
			at := s.Now() + sim.Time(c.delay)*time.Microsecond
			fire := func() {
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
				for _, c := range d.children {
					schedule(c)
				}
				checkLive("scheduling")
				simLive = append(simLive, s.QueueLen())
			}
			switch c.via {
			case 0:
				handles[id] = s.At(at, fire)
			case 1, 2:
				handles[id] = s.LaneAt(&lanes[c.via-1], at, fire)
			default:
				handles[id] = s.AfterFixed(at-s.Now(), fire)
			}
			pending[id] = true
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < initial; i++ {
			schedule(child{int64(rng.Intn(10)), i % 4})
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
			for _, c := range d.children {
				push(c.delay)
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

// The sleep fast path moves the clock in place when a sleeper's own
// wakeup would be the next event, and lanes and the ready FIFO keep
// events out of the heap. TestSleepMatchesQueuedReference,
// TestLanesMatchReference and FuzzSchedule check both against a
// reference kernel that queues every event and wakeup in one heap:
// processes that sleep, arm callbacks in the heap or in lanes, cancel
// them and spawn processes (whose first wakeup is a ready one),
// callbacks that do the same, and a run split by Run(limit) calls, all
// driven by one decision stream. The two must act in the same order at
// the same virtual times, and Run must return the same clock each time.

// A decision is one byte: the op in its low three bits, the argument
// (a delay in microseconds, or which callback to cancel) in the rest.
// Processes read opEnd, opArm, opCancel, opSpawn and opLane as written
// and any other op as a sleep; callbacks act on opArm, opCancel, opSpawn
// and opLane and ignore the rest. An exhausted stream reads as opEnd, so
// every run ends. opLane's argument is laneArg's.
const (
	opEnd    = 0
	opSleep  = 1
	opArm    = 4
	opCancel = 5
	opSpawn  = 6
	opLane   = 7
)

// laneArg encodes opLane's argument: with fixed false, an arm on lane
// 0 or 1 at now+delay (delay < 8); with fixed true, AfterFixed(delay)
// (delay < 16, more distinct delays than the kernel keeps lanes for).
func laneArg(fixed bool, lane, delay int) int {
	if fixed {
		return delay<<1 | 1
	}
	return delay<<2 | lane<<1
}

func decide(op, arg int) byte { return byte(op + arg<<3) }

// scheduleProgram lays out a decision stream: up to three Run limits,
// each given as its step past the previous one less 1 µs (a final Run(0)
// always follows), up to seven setup actions taken before the first Run,
// then every later decision in the order the kernel consumes them.
func scheduleProgram(limits []byte, setup []byte, decisions ...byte) []byte {
	data := append([]byte{byte(len(limits))}, limits...)
	data = append(data, byte(len(setup)))
	data = append(data, setup...)
	return append(data, decisions...)
}

// schedKernel is what the decision stream drives: the sim, or the
// reference. Times are in microseconds.
type schedKernel interface {
	now() int64
	arm(delay int64, id int)
	// laneArm arms like arm, on lane 0 or 1, or by AfterFixed for lane -1.
	laneArm(lane int, delay int64, id int)
	cancel(id int)
	spawn(id int)
}

// schedDriver reads the decision stream and records what each actor did.
type schedDriver struct {
	data  []byte
	trace []string
	armed int // callbacks armed so far
	procs int // processes spawned so far
}

// nextByte consumes one byte; an exhausted stream reads as zeros.
func (d *schedDriver) nextByte() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// next consumes one decision.
func (d *schedDriver) next() (op, arg int) {
	b := d.nextByte()
	return int(b & 7), int(b >> 3)
}

func (d *schedDriver) logf(k schedKernel, format string, args ...any) {
	d.trace = append(d.trace, fmt.Sprintf("%d ", k.now())+fmt.Sprintf(format, args...))
}

// act consumes one decision and performs it as a callback action.
func (d *schedDriver) act(k schedKernel) {
	op, arg := d.next()
	d.do(k, op, arg)
}

// do performs a callback action.
func (d *schedDriver) do(k schedKernel, op, arg int) {
	switch op {
	case opArm:
		d.armed++
		k.arm(int64(arg), d.armed-1)
	case opCancel:
		if d.armed > 0 {
			k.cancel(arg % d.armed)
		}
	case opSpawn:
		d.procs++
		k.spawn(d.procs - 1)
	case opLane:
		d.armed++
		if arg&1 == 1 {
			k.laneArm(-1, int64(arg>>1), d.armed-1)
		} else {
			k.laneArm(arg>>1&1, int64(arg>>2), d.armed-1)
		}
	}
}

// fire runs callback id.
func (d *schedDriver) fire(k schedKernel, id int) {
	d.logf(k, "cb%d", id)
	d.act(k)
}

// step runs a process's decisions up to its next sleep, returning the
// sleep's length (0 included), or -1 once the process ends.
func (d *schedDriver) step(k schedKernel) int64 {
	for {
		op, arg := d.next()
		switch op {
		case opEnd:
			return -1
		case opArm, opCancel, opSpawn, opLane:
			d.do(k, op, arg)
		default:
			return int64(arg)
		}
	}
}

// start reads the header, takes the setup actions and returns the Run
// limits, absolute in microseconds.
func (d *schedDriver) start(k schedKernel) []int64 {
	var limits []int64
	var limit int64
	for range d.nextByte() % 4 {
		limit += 1 + int64(d.nextByte()%64)
		limits = append(limits, limit)
	}
	for range d.nextByte() % 8 {
		d.act(k)
	}
	return limits
}

// simKernel drives the sim.
type simKernel struct {
	s      *sim.Sim
	d      *schedDriver
	events []sim.Event
	lanes  [2]sim.Lane
}

func (k *simKernel) now() int64 { return int64(k.s.Now() / time.Microsecond) }

func (k *simKernel) arm(delay int64, id int) {
	k.events = append(k.events, k.s.After(sim.Time(delay)*time.Microsecond, func() { k.d.fire(k, id) }))
}

func (k *simKernel) laneArm(lane int, delay int64, id int) {
	d := sim.Time(delay) * time.Microsecond
	fire := func() { k.d.fire(k, id) }
	if lane < 0 {
		k.events = append(k.events, k.s.AfterFixed(d, fire))
	} else {
		k.events = append(k.events, k.s.LaneAt(&k.lanes[lane], k.s.Now()+d, fire))
	}
}

func (k *simKernel) cancel(id int) { k.events[id].Cancel() }

func (k *simKernel) spawn(id int) {
	k.s.Go("p", func(p *sim.Proc) {
		k.d.logf(k, "p%d starts", id)
		for {
			d := k.d.step(k)
			if d < 0 {
				return
			}
			p.Sleep(sim.Time(d) * time.Microsecond)
			k.d.logf(k, "p%d wakes", id)
		}
	})
}

// refKernel is the reference: a container/heap queue, with lazily
// canceled entries, in which every sleep queues its wakeup.
type refKernel struct {
	d       *schedDriver
	h       refHeap
	t       int64
	seq     int
	cbs     []*refEvent // by callback id
	started []bool      // by process id
}

func (k *refKernel) now() int64 { return k.t }

func (k *refKernel) push(at int64, id int, proc bool) *refEvent {
	e := &refEvent{at: at, seq: k.seq, id: id, proc: proc}
	k.seq++
	heap.Push(&k.h, e)
	return e
}

func (k *refKernel) arm(delay int64, id int)            { k.cbs = append(k.cbs, k.push(k.t+delay, id, false)) }
func (k *refKernel) laneArm(_ int, delay int64, id int) { k.arm(delay, id) }
func (k *refKernel) cancel(id int)                      { k.cbs[id].dead = true }
func (k *refKernel) spawn(id int) {
	k.started = append(k.started, false)
	k.push(k.t, id, true)
}

// resume runs process id from its start or from a wakeup, until it
// queues its next wakeup or ends.
func (k *refKernel) resume(id int) {
	if k.started[id] {
		k.d.logf(k, "p%d wakes", id)
	} else {
		k.started[id] = true
		k.d.logf(k, "p%d starts", id)
	}
	for {
		d := k.d.step(k)
		switch {
		case d < 0:
			return
		case d > 0:
			k.push(k.t+d, id, true)
			return
		}
		k.d.logf(k, "p%d wakes", id)
	}
}

// run is Run: fire live events in (at, seq) order until none is left or
// the next lies past the limit, which then becomes the clock.
func (k *refKernel) run(limit int64) int64 {
	for {
		for k.h.Len() > 0 && k.h[0].dead {
			heap.Pop(&k.h)
		}
		if k.h.Len() == 0 {
			return k.t
		}
		if limit > 0 && k.h[0].at > limit {
			k.t = limit
			return k.t
		}
		e := heap.Pop(&k.h).(*refEvent)
		k.t = e.at
		if e.proc {
			k.resume(e.id)
		} else {
			k.d.fire(k, e.id)
		}
	}
}

// runSchedule plays data through the sim, or through the reference, and
// returns the trace.
func runSchedule(data []byte, reference bool) []string {
	d := &schedDriver{data: data}
	var k schedKernel
	var run func(limit int64) int64
	if reference {
		rk := &refKernel{d: d}
		k, run = rk, rk.run
	} else {
		s := sim.New(1)
		defer s.Close()
		sk := &simKernel{s: s, d: d}
		k = sk
		run = func(limit int64) int64 {
			return int64(s.Run(sim.Time(limit)*time.Microsecond) / time.Microsecond)
		}
	}
	for _, limit := range append(d.start(k), 0) {
		d.trace = append(d.trace, fmt.Sprintf("run(%d) = %d", limit, run(limit)))
	}
	return d.trace
}

func checkScheduleMatchesReference(t *testing.T, data []byte) []string {
	t.Helper()
	got, want := runSchedule(data, false), runSchedule(data, true)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("step %d: sim %q, reference %q\nsim: %q", i, got[i], want[i], got[:i+1])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("sim took %d steps, reference %d\nsim: %q\nreference: %q", len(got), len(want), got, want)
	}
	return got
}

// The hand-written schedules: a sleep ending on the head's timestamp,
// one ending at Run's limit, and one ending past it.
var sleepEdgeCases = []struct {
	name string
	data []byte
	want []string
}{{
	// p0's wakeup ties with cb0, which was scheduled first: it queues
	// behind it, so cb0 fires first.
	name: "tie with the head",
	data: scheduleProgram(nil, []byte{decide(opSpawn, 0), decide(opArm, 10)},
		decide(opSleep, 10), decide(opSleep, 0), decide(opEnd, 0)),
	want: []string{"0 p0 starts", "10 cb0", "10 p0 wakes", "run(0) = 10"},
}, {
	// p0 wakes exactly at the limit inside the first Run; its next sleep
	// ends past the limit, so it stays parked until the second.
	name: "ends at the limit",
	data: scheduleProgram([]byte{9}, []byte{decide(opSpawn, 0), decide(opArm, 20)},
		decide(opSleep, 10), decide(opSleep, 5), decide(opEnd, 0)),
	want: []string{"0 p0 starts", "10 p0 wakes", "run(10) = 10", "15 p0 wakes", "20 cb0", "run(0) = 20"},
}, {
	// The queue is empty, but the wakeup lies past the limit: Run stops
	// the clock at the limit with p0 still parked.
	name: "ends past the limit",
	data: scheduleProgram([]byte{9}, []byte{decide(opSpawn, 0)},
		decide(opSleep, 11), decide(opEnd, 0)),
	want: []string{"0 p0 starts", "run(10) = 10", "11 p0 wakes", "run(0) = 11"},
}}

// TestSleepMatchesQueuedReference checks the hand-written edge cases
// against their expected traces, and random decision streams against the
// reference.
func TestSleepMatchesQueuedReference(t *testing.T) {
	for _, c := range sleepEdgeCases {
		if got := checkScheduleMatchesReference(t, c.data); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: trace %q, want %q", c.name, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 300 {
		data := make([]byte, 64+rng.Intn(1024))
		rng.Read(data)
		for i, b := range data {
			if b&7 == opEnd && rng.Intn(4) > 0 { // keep processes alive longer, so more overlap
				data[i] |= opSleep
			}
		}
		checkScheduleMatchesReference(t, data)
	}
}

// The hand-written lane schedules, each against its expected trace.
var laneEdgeCases = []struct {
	name string
	data []byte
	want []string
}{{
	// Lane entries fire in time order, and a heap event due at the same
	// time as lane entries takes its place by schedule order.
	name: "in order",
	data: scheduleProgram(nil, []byte{
		decide(opLane, laneArg(false, 0, 5)), decide(opLane, laneArg(false, 0, 5)),
		decide(opArm, 5), decide(opLane, laneArg(false, 0, 7))}),
	want: []string{"5 cb0", "5 cb1", "5 cb2", "7 cb3", "run(0) = 7"},
}, {
	// cb1 is due before its lane's tail, so it goes to the heap, and cb2
	// still queues behind cb0.
	name: "earlier than the tail",
	data: scheduleProgram(nil, []byte{
		decide(opLane, laneArg(false, 0, 6)), decide(opLane, laneArg(false, 0, 4)),
		decide(opLane, laneArg(false, 0, 6))}),
	want: []string{"4 cb1", "6 cb0", "6 cb2", "run(0) = 6"},
}, {
	// Canceling the head and a middle entry, and then, from cb1, the
	// tail, leaves cb1 and cb3 linked; cb3 arms cb5 behind itself.
	name: "cancel head, middle and tail",
	data: scheduleProgram(nil, []byte{
		decide(opLane, laneArg(false, 1, 1)), decide(opLane, laneArg(false, 1, 2)),
		decide(opLane, laneArg(false, 1, 3)), decide(opLane, laneArg(false, 1, 4)),
		decide(opLane, laneArg(false, 1, 5)),
		decide(opCancel, 0), decide(opCancel, 2)},
		decide(opCancel, 4), decide(opLane, laneArg(false, 1, 6))),
	want: []string{"2 cb1", "4 cb3", "10 cb5", "run(0) = 10"},
}, {
	// cb0, firing, cancels its lane's new head cb1; cb2 still fires.
	name: "cancel from a callback",
	data: scheduleProgram(nil, []byte{
		decide(opLane, laneArg(true, 0, 1)), decide(opLane, laneArg(true, 0, 2)),
		decide(opLane, laneArg(false, 0, 3))},
		decide(opCancel, 1)),
	want: []string{"1 cb0", "3 cb2", "run(0) = 3"},
}, {
	// p0's first wakeup sits in the ready FIFO between two heap events
	// due at the same time: it fires after the one scheduled before it
	// and before the one scheduled after it.
	name: "ready tie with the heap",
	data: scheduleProgram(nil, []byte{decide(opArm, 0), decide(opSpawn, 0), decide(opArm, 0)},
		decide(opEnd, 0), decide(opEnd, 0)),
	want: []string{"0 cb0", "0 p0 starts", "0 cb1", "run(0) = 0"},
}, {
	// Lane heads past Run's limit stay queued; the clock stops at it.
	name: "lane heads past the limit",
	data: scheduleProgram([]byte{3}, []byte{
		decide(opLane, laneArg(false, 0, 2)), decide(opLane, laneArg(false, 0, 7)),
		decide(opLane, laneArg(true, 0, 15))}),
	want: []string{"2 cb0", "run(4) = 4", "7 cb1", "15 cb2", "run(0) = 15"},
}}

// TestLanesMatchReference checks the hand-written lane cases against
// their expected traces.
func TestLanesMatchReference(t *testing.T) {
	for _, c := range laneEdgeCases {
		if got := checkScheduleMatchesReference(t, c.data); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: trace %q, want %q", c.name, got, c.want)
		}
	}
}

func FuzzSchedule(f *testing.F) {
	for _, c := range sleepEdgeCases {
		f.Add(c.data)
	}
	for _, c := range laneEdgeCases {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		checkScheduleMatchesReference(t, data)
	})
}
