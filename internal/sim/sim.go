// Package sim implements a deterministic discrete-event simulation kernel.
//
// The reproduction models the Linux 2.4.4 kernel's NFS client write path as
// a set of cooperating processes (application writer threads, nfs_flushd,
// network softirq handlers, server daemons) that execute on a virtual clock.
// Exactly one process runs at a time, so a given seed and workload always
// produce bit-identical schedules. A process is either a coroutine
// (iter.Pull, started by Go) that Run resumes and that hands control back
// only when it parks, or a task (NewTask): a chain of continuations the
// event loop calls in place, with no coroutine to switch to. This is what
// lets us reproduce the paper's queueing and lock-contention phenomena
// without the run-to-run variance the authors complain about in §2.2.
//
// The kernel is built for thousand-client fleets (DESIGN.md §12), and
// each event costs in proportion to the live work. Events fire in
// (time, sequence) order, so same-timestamp events fire in scheduling
// order. They live in a pooled 4-ary heap that holds only live events,
// because Cancel takes a retransmit timer out at once instead of
// leaving it to come due. Runs that arrive already sorted — a link's
// deliveries, the timers armed at one fixed delay — wait in Lanes, FIFOs
// of which only the head sits in the heap, so the event loop merges
// sorted runs rather than sifting every entry; wakeups due now wait in a
// ready FIFO that never enters the heap at all. A sleep whose wakeup
// would be the next event anyway, as it is for most CPU charges on a
// lightly loaded client, moves the clock in place and queues nothing.
// Other wakeups are queue entries rather than closures, and a parking
// process runs the event loop itself — one whose own wakeup comes due
// next resumes without switching at all, and a task's wakeup runs its
// continuation right there. CPU time and lock waits are charged to
// interned Labels, slice indexes rather than string keys. Close ends a
// simulation's parked processes and hands its event storage and the
// layers' record stocks (Stock) to the next New.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Time is virtual time since the start of the simulation.
type Time = time.Duration

// event is a scheduled callback or process wakeup. Events fire in
// (at, seq) order, so same-timestamp events run in the order they were
// scheduled (FIFO). Fired and canceled events return to the simulator's
// pool; gen distinguishes a recycled event from the scheduling an Event
// handle refers to. An event queued in a Lane links to its neighbours
// there; only a lane's head has a heap index. The struct fills one
// 64-byte cache line.
type event struct {
	at         Time
	seq        uint64
	gen        uint32
	idx        int32 // position in the heap while queued there; -1 in the ready FIFO
	proc       *Proc // wakeup target; nil for callback events
	fn         func()
	lane       *Lane  // the lane the event waits in; nil for a heap-only event
	prev, next *event // neighbours in the lane
}

// Event is a handle to a scheduled callback; it can be canceled before it
// fires (used for retransmit timers). The zero value is a valid no-op
// handle.
type Event struct {
	s   *Sim
	ev  *event
	gen uint32
}

// Cancel removes the event from the queue before it fires and recycles
// it. Canceling an already-fired or already-canceled event, or one whose
// simulation has been closed, is a no-op: the underlying entry has been
// recycled under a new generation by then.
func (e Event) Cancel() {
	if ev := e.ev; ev != nil && ev.gen == e.gen {
		if ev.lane == nil {
			e.s.events.remove(int(ev.idx))
		} else {
			e.s.unlink(ev)
		}
		e.s.recycle(ev)
	}
}

// Lane is a FIFO of events whose (at, seq) keys never decrease, such as
// the deliveries queued behind one link or the timers armed at one fixed
// delay. Only its head waits in the heap, so the event loop merges
// already-sorted runs instead of sifting every entry: the firing order
// is exactly that of one heap, each pop costs the heap one sift-down,
// and Cancel unlinks an entry in O(1). The zero Lane is empty and ready
// to use; a Lane belongs to one Sim and must not be copied once used.
type Lane struct {
	head, tail *event
}

// eventQueue is a 4-ary min-heap on (at, seq) that holds only live
// events: each event records its index, so Cancel removes it at once
// instead of leaving it to sift through later pushes and pops. Four-way
// fanout halves the tree depth of a binary heap and keeps sibling
// comparisons inside one cache line of pointers, and the hand-rolled
// sift paths avoid container/heap's interface boxing on every operation.
type eventQueue []*event

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// up moves ev from index i toward the root until its parent is smaller.
// Every entry it stores records its new index.
func (q *eventQueue) up(i int, ev *event) {
	h := *q
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !eventLess(ev, p) {
			break
		}
		h[i], p.idx = p, int32(i)
		i = parent
	}
	h[i], ev.idx = ev, int32(i)
}

// down moves ev from index i toward the leaves until no child is smaller.
// Every entry it stores records its new index.
func (q *eventQueue) down(i int, ev *event) {
	h := *q
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		least := h[c]
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if eventLess(h[j], least) {
				least = h[j]
				c = j
			}
		}
		// c now indexes the smallest child; walk ev down past it.
		if !eventLess(least, ev) {
			break
		}
		h[i], least.idx = least, int32(i)
		i = c
	}
	h[i], ev.idx = ev, int32(i)
}

func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

// remove takes the event at index i out of the heap, filling the hole
// with the last entry and sifting it whichever way restores the order.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if i < n {
		if i > 0 && eventLess(last, h[(i-1)>>2]) {
			q.up(i, last)
		} else {
			q.down(i, last)
		}
	}
}

// eventBlock is how many events one pool refill allocates: a single
// backing array keeps pooled events cache-adjacent.
const eventBlock = 128

// yieldEvery is how many events the loop fires between yields to the Go
// scheduler. Coroutine switches bypass the scheduler, so on one P a
// garbage collection's background mark worker would otherwise get the
// CPU only when sysmon preempts the simulation, up to 10 ms later. Until
// the marking finishes, every pointer store pays the write barrier, and
// a request-list insert shifts thousands of pointers. A simulation that
// allocates little leaves most of the marking to that worker, so without
// the yield it ran with the barrier on for several times as long as one
// whose allocations pay for the marking (DESIGN.md §12). The yield costs
// about 0.1 µs and cannot change output: only Go's scheduler sees it.
const yieldEvery = 128

// delayLanes is how many fixed delays one simulation keeps a lane for
// (AfterFixed): a UDP retransmit ladder from 1.1 s doubling to the 60 s
// cap has seven steps.
const delayLanes = 8

// Sim is a discrete-event simulation instance. It is not safe for use from
// multiple OS threads; all interaction happens from the Run caller or the
// process Run has resumed.
type Sim struct {
	now    Time
	seq    uint64
	seed   int64
	events eventQueue
	// ready holds the process wakeups due now (Go and every unpark). Its
	// head never enters the heap: the event loop compares it with the
	// heap's head directly.
	ready Lane
	// delays are AfterFixed's lanes, claimed by delay in first-use order.
	delays [delayLanes]struct {
		d    Time
		lane Lane
	}
	ndelays int      // how many of delays are claimed
	fired   uint64   // events popped, for yieldEvery
	pool    []*event // recycled event entries
	limit   Time     // current Run's time limit (0 = none)
	rng     *rand.Rand
	prof    *Profiler

	procs  []*Proc // live (spawned, unterminated) processes
	stocks []any   // the layers' record stocks, indexed by Stock id
	closed bool
	// ran records that the current Run has resumed a process or run a
	// task, from which point every panic leaves Run wrapped.
	ran bool
}

// New returns a simulator with the given deterministic seed.
func New(seed int64) *Sim {
	s := &Sim{
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
		prof: NewProfiler(),
	}
	st := takeSpare()
	s.events, s.pool, s.procs, s.stocks = st.heap, st.pool, st.procs, st.stocks
	return s
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Seed returns the seed the simulator was created with. Subsystems that
// need their own random stream (e.g. the network's loss model) derive it
// from this value instead of drawing from Rand, so enabling them never
// perturbs the draw sequence other components see.
func (s *Sim) Seed() int64 { return s.seed }

// Profiler returns the simulation's CPU profiler.
func (s *Sim) Profiler() *Profiler { return s.prof }

// alloc takes an event from the pool, refilling it in blocks.
func (s *Sim) alloc() *event {
	if len(s.pool) == 0 {
		block := make([]event, eventBlock)
		for i := range block {
			s.pool = append(s.pool, &block[i])
		}
	}
	ev := s.pool[len(s.pool)-1]
	s.pool = s.pool[:len(s.pool)-1]
	return ev
}

// recycle returns a popped event to the pool under a new generation, so
// stale Event handles can no longer cancel it.
func (s *Sim) recycle(ev *event) {
	ev.gen++
	ev.proc = nil
	ev.fn = nil
	if ev.lane != nil {
		ev.lane, ev.prev, ev.next = nil, nil, nil
	}
	s.pool = append(s.pool, ev)
}

// At schedules fn to run at absolute virtual time t (clamped to now).
func (s *Sim) At(t Time, fn func()) Event {
	if t < s.now {
		t = s.now
	}
	ev := s.alloc()
	ev.at, ev.seq, ev.fn = t, s.seq, fn
	s.seq++
	s.events.push(ev)
	return Event{s: s, ev: ev, gen: ev.gen}
}

// After schedules fn to run d from now.
func (s *Sim) After(d Time, fn func()) Event { return s.At(s.now+d, fn) }

// LaneAt schedules fn at absolute virtual time t (clamped to now) at the
// tail of lane l. It fires exactly when At would fire it. A time earlier
// than the lane's tail — a delivery that drew less jitter than the one
// before it — is scheduled by At instead, outside the lane.
func (s *Sim) LaneAt(l *Lane, t Time, fn func()) Event {
	tail := l.tail
	if tail != nil && t < tail.at {
		return s.At(t, fn)
	}
	if t < s.now {
		t = s.now
	}
	ev := s.alloc()
	ev.at, ev.seq, ev.fn = t, s.seq, fn
	s.seq++
	ev.lane, ev.prev, l.tail = l, tail, ev
	if tail == nil {
		l.head = ev
		s.events.push(ev)
	} else {
		tail.next = ev
	}
	return Event{s: s, ev: ev, gen: ev.gen}
}

// AfterFixed schedules fn to run d from now, like After, for a timer
// armed over and over at one fixed delay, such as a retransmit timeout
// and each of its backoffs. Timers armed at the same delay come due in
// the order they were armed, so they share a lane; the first delayLanes
// distinct delays get one each, and any other goes to the heap.
func (s *Sim) AfterFixed(d Time, fn func()) Event {
	l := s.delayLane(d)
	if l == nil {
		return s.After(d, fn)
	}
	return s.LaneAt(l, s.now+d, fn)
}

// delayLane returns the lane for timers at fixed delay d, claiming a free
// one on first use, or nil when every lane serves another delay.
func (s *Sim) delayLane(d Time) *Lane {
	for i := range s.ndelays {
		if s.delays[i].d == d {
			return &s.delays[i].lane
		}
	}
	if s.ndelays == delayLanes {
		return nil
	}
	dl := &s.delays[s.ndelays]
	s.ndelays++
	dl.d = d
	return &dl.lane
}

// unlink takes an event out of its lane or the ready FIFO. A lane
// head's successor takes its heap slot; its key is larger, so it can
// only sift down.
func (s *Sim) unlink(ev *event) {
	l := ev.lane
	prev, next := ev.prev, ev.next
	if prev == nil {
		l.head = next
		if ev.idx >= 0 {
			if next != nil {
				s.events.down(int(ev.idx), next)
			} else {
				s.events.remove(int(ev.idx))
			}
		}
	} else {
		prev.next = next
	}
	if next == nil {
		l.tail = prev
	} else {
		next.prev = prev
	}
}

// wake schedules a process wakeup at time t, later than now — the
// allocation-free path behind a queued Sleep.
func (s *Sim) wake(t Time, p *Proc) {
	ev := s.alloc()
	ev.at, ev.seq, ev.proc = t, s.seq, p
	s.seq++
	s.events.push(ev)
}

// wakeNow schedules a process wakeup at the current time, at the tail of
// the ready FIFO. Ready entries are due now and were scheduled in seq
// order, so the FIFO is sorted; it never feeds the heap.
func (s *Sim) wakeNow(p *Proc) {
	ev := s.alloc()
	ev.at, ev.seq, ev.proc, ev.idx = s.now, s.seq, p, -1
	s.seq++
	l := &s.ready
	ev.lane, ev.prev = l, l.tail
	if l.tail == nil {
		l.head = ev
	} else {
		l.tail.next = ev
	}
	l.tail = ev
}

// schedule runs the event loop: it pops and executes events until a
// process wakeup comes due (returning that process), or until the queue
// drains or the limit is reached (returning nil). It runs on the Run
// caller or inline in a parking process; a panic in a callback unwinds
// whichever of the two that is.
func (s *Sim) schedule() *Proc {
	for {
		var next *event
		if len(s.events) > 0 {
			next = s.events[0]
			if r := s.ready.head; r != nil && eventLess(r, next) {
				next = r
			}
		} else if next = s.ready.head; next == nil {
			return nil
		}
		if s.pastLimit(next.at) {
			s.now = s.limit
			return nil
		}
		if next.lane == nil {
			s.events.remove(0)
		} else {
			s.unlink(next)
		}
		s.now = next.at
		s.tick()
		p, fn := next.proc, next.fn
		s.recycle(next)
		if p != nil {
			if p.ended {
				continue
			}
			if p.resume == nil {
				s.runTask(p)
				continue
			}
			return p
		}
		fn()
	}
}

// runTask runs task p's stored continuation, and the next one after it
// for as long as a step finishes in place. A loop rather than a nested
// call keeps the stack flat however many steps complete inline.
func (s *Sim) runTask(p *Proc) {
	s.ran = true
	for {
		k := p.next
		p.next = nil
		k()
		if !p.inline {
			return
		}
		p.inline = false
	}
}

// pastLimit reports whether time t lies beyond the current Run's limit,
// where the event loop stops the clock.
func (s *Sim) pastLimit(t Time) bool { return s.limit > 0 && t > s.limit }

// tick counts one fired event and yields to the Go scheduler every
// yieldEvery of them.
func (s *Sim) tick() {
	if s.fired++; s.fired%yieldEvery == 0 {
		runtime.Gosched()
	}
}

// handoff resumes p until it parks, returning the process it chose to run
// next (nil when the queue drained or the limit was reached). If p ends
// instead, handoff runs the event loop on p's behalf.
func (s *Sim) handoff(p *Proc) *Proc {
	if next, ok := p.resume(); ok {
		return next
	}
	return s.schedule()
}

// Run executes events until the event queue is empty or the virtual clock
// would pass limit (limit <= 0 means no limit). It returns the final
// virtual time. Once a process has been resumed or a task has run, any
// panic — in a process, a task's continuation, or a callback run after
// them — leaves Run as one formatted panic carrying the value; a
// callback's panic before that propagates unchanged.
func (s *Sim) Run(limit Time) Time {
	s.limit = limit
	s.ran = false
	defer func() {
		if s.ran {
			if r := recover(); r != nil {
				panic(fmt.Sprintf("sim: process panicked at t=%v: %v", s.now, r))
			}
		}
	}()
	p := s.schedule()
	if p != nil {
		s.ran = true
	}
	for p != nil {
		p = s.handoff(p)
	}
	return s.now
}

// Close ends the simulation. Every process that has not terminated is
// unwound where it is parked — its deferred calls run, and must not block
// — and its coroutine is freed; a task simply never runs again. Queued
// events are discarded and the event and process storage goes to a later
// New. Run must not be called again, but Now, Profiler and the other
// accessors stay valid. The record stocks go to that New too, once the
// unwinding is done. Close is idempotent.
func (s *Sim) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for len(s.procs) > 0 {
		p := s.procs[len(s.procs)-1]
		if p.stop != nil {
			p.stop()
		}
		if !p.ended { // a task, or a process that never started
			s.retire(p)
		}
	}
	for _, ev := range s.events {
		s.recycleLane(ev)
	}
	s.recycleLane(s.ready.head)
	clear(s.events)
	putSpare(eventStore{heap: s.events[:0], pool: s.pool, procs: s.procs, stocks: s.stocks})
	s.events, s.pool, s.procs, s.stocks = nil, nil, nil, nil
}

// recycleLane recycles ev and, when it heads a lane, every event behind
// it, and empties the lane.
func (s *Sim) recycleLane(ev *event) {
	if ev != nil && ev.lane != nil {
		*ev.lane = Lane{}
	}
	for ev != nil {
		next := ev.next
		s.recycle(ev)
		ev = next
	}
}

// retire removes an ended process from the live set.
func (s *Sim) retire(p *Proc) {
	p.ended = true
	last := s.procs[len(s.procs)-1]
	s.procs[p.slot], last.slot = last, p.slot
	s.procs[len(s.procs)-1] = nil
	s.procs = s.procs[:len(s.procs)-1]
}

// maxSpares bounds how many closed simulations' event storage is kept for
// reuse: enough for a worker pool's concurrent scenarios.
const maxSpares = 8

// eventStore is a closed simulation's event storage: its empty heap array,
// its pool, which holds every event the simulation allocated, its empty
// process list and its record stocks.
type eventStore struct {
	heap   eventQueue
	pool   []*event
	procs  []*Proc
	stocks []any
}

// spares keeps closed simulations' event storage for New, so a run does
// not pay again for the event blocks, heap array, process list and
// records a previous run grew.
var spares struct {
	mu     sync.Mutex
	stores []eventStore
}

// takeSpare returns a closed simulation's event storage, or the zero
// store when none is kept.
func takeSpare() eventStore {
	spares.mu.Lock()
	defer spares.mu.Unlock()
	n := len(spares.stores)
	if n == 0 {
		return eventStore{}
	}
	st := spares.stores[n-1]
	spares.stores[n-1] = eventStore{}
	spares.stores = spares.stores[:n-1]
	return st
}

// putSpare keeps st for a later takeSpare, unless maxSpares are kept.
func putSpare(st eventStore) {
	spares.mu.Lock()
	defer spares.mu.Unlock()
	if len(spares.stores) < maxSpares {
		spares.stores = append(spares.stores, st)
	}
}

// Stock names one layer's per-simulation stock of recycled records: a T
// holding its free lists. A layer registers its kind once, in a
// package-level var, the way it registers Labels; Of returns the
// simulation's T. Every client and transport of one simulation shares
// it, and Close hands it on with the event storage, so a run starts with
// the records earlier runs made instead of warming lists of its own. The
// records in a stock must hold no pointer into the simulation that freed
// them (its Procs, WaitQueues, or the clients and transports built on
// it): whoever takes one binds it to its own.
type Stock[T any] struct{ id int }

// stockKinds counts the registered Stocks.
var stockKinds atomic.Int32

// NewStock registers a stock kind holding a T.
func NewStock[T any]() Stock[T] { return Stock[T]{int(stockKinds.Add(1) - 1)} }

// Of returns s's stock of this kind, making an empty one on first use.
func (k Stock[T]) Of(s *Sim) *T {
	if k.id >= len(s.stocks) {
		s.stocks = append(s.stocks, make([]any, k.id+1-len(s.stocks))...)
	}
	st, ok := s.stocks[k.id].(*T)
	if !ok {
		st = new(T)
		s.stocks[k.id] = st
	}
	return st
}

// Proc is a simulated thread of control. Every blocking primitive takes the
// Proc so the scheduler knows which process to park and wake: a coroutine
// (Go) calls the blocking forms, a task (NewTask) their Then forms.
type Proc struct {
	s     *Sim
	name  string
	slot  int // index in s.procs while live
	ended bool

	// resume runs the coroutine until it yields the process to run next
	// (ok) or its body returns (!ok); yield is the coroutine's side of
	// that, and reports false once Close has stopped it. All three are
	// nil for a task.
	resume func() (next *Proc, ok bool)
	yield  func(next *Proc) bool
	stop   func()

	// A task's next continuation, which its wakeup runs, and whether the
	// step that stored it finished in place, so it runs now.
	next   func()
	inline bool
	// The CPU charge or lock acquisition a task is part way through: the
	// continuation that follows it (after), and what the finishing step
	// books (UseThen, LockThen).
	after  func()
	pool   *CPUPool
	mu     *Mutex
	label  Label
	blame  Label
	charge Time // the CPU time being charged
	since  Time // when the lock wait began
	// The finishing steps, bound once by NewTask.
	onCPU, onCharged, onLocked func()
}

// stopped is the panic value that unwinds a process Close has stopped.
type stopped struct{}

// Go spawns a process that begins running at the current virtual time.
func (s *Sim) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name, slot: len(s.procs)}
	s.procs = append(s.procs, p)
	p.resume, p.stop = iter.Pull(func(yield func(*Proc) bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
	s.wakeNow(p)
	return p
}

// NewTask spawns a task: a process with no coroutine that begins by
// running start at the current virtual time. A task's code is a chain of
// continuations. Each ends by calling one Then primitive (SleepThen,
// CPUPool.UseThen, Mutex.LockThen, WaitQueue.WaitThen) in tail position
// and returning; the primitive stores the next continuation, and the
// task's wakeup runs it. Each Then form schedules exactly the events of
// its blocking form — the same times, sequence numbers, jitter draws,
// profiler charges and lock bookkeeping — so a task and a coroutine
// running the same steps produce the same simulation. A continuation
// bound once (a method value) makes every step allocation-free.
func (s *Sim) NewTask(name string, start func()) *Proc {
	p := &Proc{s: s, name: name, slot: len(s.procs), next: start}
	p.onCPU, p.onCharged, p.onLocked = p.chargeCPU, p.charged, p.locked
	s.procs = append(s.procs, p)
	s.wakeNow(p)
	return p
}

// then stores k as task p's next continuation. A task blocks once per
// step, so a continuation already stored is a bug in the caller.
func (p *Proc) then(k func()) {
	if p.resume != nil {
		panic(fmt.Sprintf("sim: process %s used a task primitive", p.name))
	}
	if p.next != nil {
		panic(fmt.Sprintf("sim: task %s blocked twice in one step", p.name))
	}
	p.next = k
}

// proceed stores k as task p's next continuation, to run as soon as the
// current step returns.
func (p *Proc) proceed(k func()) {
	p.then(k)
	p.inline = true
}

// exit retires p when its body returns or unwinds. It absorbs the stopped
// signal of Close; any other panic continues on to Run.
func (p *Proc) exit() {
	p.s.retire(p)
	if r := recover(); r != nil && r != (stopped{}) {
		panic(r)
	}
}

// park yields control until something schedules a wakeup for p. The
// parking process runs the event loop itself: when its own wakeup is the
// next transfer of control — the common case for a process sleeping
// through its service time — it simply returns without switching.
// Otherwise it hands the chosen process (or nil, to end the Run) back to
// Run and waits to be resumed.
func (p *Proc) park() {
	if p.resume == nil {
		panic(fmt.Sprintf("sim: task %s used a blocking primitive", p.name))
	}
	next := p.s.schedule()
	if next == p {
		return
	}
	if !p.yield(next) {
		panic(stopped{})
	}
}

// Sleep advances the process's virtual time by d without consuming a CPU
// (used for pure waiting: wire propagation, timers). When the wakeup would
// be the next event anyway — no wakeup is ready, the heap is empty or its
// head is strictly later, and Run's limit does not stop the clock first —
// Sleep moves the clock in place: no queue entry, no event loop, no
// switch. The wakeup still counts as a fired event, so the loop yields to
// the Go scheduler as often as before. A tie with the head queues, so
// same-timestamp events keep their FIFO order; the fast path takes no
// sequence number, and sequence numbers are only ever compared, so every
// other event fires in the same order as if the wakeup had been queued.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	s := p.s
	t := s.now + d
	if s.inPlace(t) {
		s.now = t
		s.tick()
		return
	}
	s.wake(t, p)
	p.park()
}

// inPlace reports whether a wakeup at t would be the next event anyway:
// no wakeup is ready, the heap is empty or its head is strictly later,
// and Run's limit does not stop the clock first. Such a sleep moves the
// clock in place.
func (s *Sim) inPlace(t Time) bool {
	return s.ready.head == nil && (len(s.events) == 0 || s.events[0].at > t) && !s.pastLimit(t)
}

// SleepThen is Sleep for task p: k runs once d has passed. When the
// wakeup would be the next event anyway, the clock moves in place and k
// runs as soon as the current step returns.
func (p *Proc) SleepThen(d Time, k func()) {
	if d <= 0 {
		p.proceed(k)
		return
	}
	p.then(k)
	s := p.s
	t := s.now + d
	if s.inPlace(t) {
		s.now = t
		s.tick()
		p.inline = true
		return
	}
	s.wake(t, p)
}

// popWaiter removes and returns the oldest waiter, shifting in place so
// the backing array is reused instead of re-allocated by later appends.
func popWaiter(ws *[]*Proc) *Proc {
	old := *ws
	next := old[0]
	n := copy(old, old[1:])
	old[n] = nil
	*ws = old[:n]
	return next
}

// Mutex is a FIFO-fair sleeping mutex. The simulation's "big kernel lock"
// is one of these; FIFO ordering matches the 2.4 kernel's lock semantics
// closely enough for the contention phenomena under study and keeps the
// simulation deterministic.
type Mutex struct {
	s       *Sim
	name    string
	holder  *Proc
	because Label // profiling label the holder supplied
	waiters []*Proc

	// Contention statistics, used to reproduce the paper's kernel-profile
	// observations (§3.5: the lock section is the 4th largest CPU consumer;
	// ~90% of write-path lock wait is attributable to sock_sendmsg).
	Acquisitions int
	Contentions  int
	TotalWait    Time
	waits        Profiler // wait time and contentions by the holder's label
}

// NewMutex returns a named FIFO mutex.
func (s *Sim) NewMutex(name string) *Mutex {
	return &Mutex{s: s, name: name}
}

// Lock acquires the mutex for p, blocking in virtual time if it is held.
// The label names the critical section for contention attribution.
func (m *Mutex) Lock(p *Proc, label Label) {
	m.Acquisitions++
	if m.holder == nil {
		m.holder = p
		m.because = label
		return
	}
	m.Contentions++
	blame := m.because
	t0 := m.s.now
	m.waiters = append(m.waiters, p)
	p.park()
	// Unlock made us the holder before dispatching us.
	w := m.s.now - t0
	m.TotalWait += w
	m.waits.Add(blame, w)
	m.because = label
}

// LockThen is Lock for task p: k runs holding the mutex, at once when it
// is free and otherwise once Unlock hands it over.
func (m *Mutex) LockThen(p *Proc, label Label, k func()) {
	m.Acquisitions++
	if m.holder == nil {
		m.holder = p
		m.because = label
		p.proceed(k)
		return
	}
	p.then(p.onLocked)
	m.Contentions++
	p.after, p.mu, p.blame, p.label, p.since = k, m, m.because, label, m.s.now
	m.waiters = append(m.waiters, p)
}

// locked books a task's wait for the mutex Unlock just handed it, as Lock
// does on waking, and goes on to the task's continuation.
func (p *Proc) locked() {
	m := p.mu
	w := m.s.now - p.since
	m.TotalWait += w
	m.waits.Add(p.blame, w)
	m.because = p.label
	p.mu = nil
	p.next, p.after, p.inline = p.after, nil, true
}

// Unlock releases the mutex; ownership passes FIFO to the oldest waiter.
func (m *Mutex) Unlock(p *Proc) {
	if m.holder != p {
		panic(fmt.Sprintf("sim: %s unlocked by %s, held by %v", m.name, p.name, m.holder))
	}
	if len(m.waiters) == 0 {
		m.holder = nil
		m.because = Label{}
		return
	}
	next := popWaiter(&m.waiters)
	m.holder = next
	m.s.wakeNow(next)
}

// Relabel renames the critical section p is executing while holding the
// mutex, so contention is attributed to the right code path (e.g. the
// send path relabels to "sock_sendmsg" for the duration of the network
// call).
func (m *Mutex) Relabel(p *Proc, label Label) {
	if m.holder != p {
		panic(fmt.Sprintf("sim: %s relabeled by %s, held by %v", m.name, p.name, m.holder))
	}
	m.because = label
}

// WaitBreakdown returns, per critical-section label, the total time other
// processes spent waiting while that label held the mutex.
func (m *Mutex) WaitBreakdown() map[string]Time {
	out := make(map[string]Time)
	for _, e := range m.waits.Top(0) {
		out[e.Label] = e.Total
	}
	return out
}

// WaitQueue parks processes until they are signaled, like the kernel's
// wait_event/wake_up pairs. Callers must re-check their predicate after
// Wait returns (standard condition-variable discipline). A queue points
// into no simulation: it wakes each waiter in the waiter's own, so the
// zero WaitQueue is empty and ready to use, and an empty one can be
// kept in a record a stock hands to a later simulation.
type WaitQueue struct {
	waiters []*Proc
}

// NewWaitQueue returns an empty wait queue.
func (s *Sim) NewWaitQueue() *WaitQueue {
	return &WaitQueue{}
}

// Wait parks p until Signal or Broadcast wakes it.
func (q *WaitQueue) Wait(p *Proc) {
	q.waiters = append(q.waiters, p)
	p.park()
}

// WaitThen is Wait for task p: k runs once Signal or Broadcast wakes it.
func (q *WaitQueue) WaitThen(p *Proc, k func()) {
	p.then(k)
	q.waiters = append(q.waiters, p)
}

// Signal wakes the oldest waiter, if any.
func (q *WaitQueue) Signal() {
	if len(q.waiters) == 0 {
		return
	}
	next := popWaiter(&q.waiters)
	next.s.wakeNow(next)
}

// Broadcast wakes every waiter. Waking only schedules, so the waiters
// array is emptied in place and reused by the next Wait.
func (q *WaitQueue) Broadcast() {
	for _, p := range q.waiters {
		p.s.wakeNow(p)
	}
	clear(q.waiters)
	q.waiters = q.waiters[:0]
}

// Waiting returns the number of parked processes.
func (q *WaitQueue) Waiting() int { return len(q.waiters) }
