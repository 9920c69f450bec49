// Package sim implements a deterministic discrete-event simulation kernel.
//
// The reproduction models the Linux 2.4.4 kernel's NFS client write path as
// a set of cooperating processes (application writer threads, nfs_flushd,
// network softirq handlers, server daemons) that execute on a virtual clock.
// Exactly one process runs at a time: each is a coroutine (iter.Pull) that
// Run resumes and that hands control back only when it parks, so a given
// seed and workload always produce bit-identical schedules. This is what
// lets us reproduce the paper's queueing and lock-contention phenomena
// without the run-to-run variance the authors complain about in §2.2.
//
// The kernel is built for thousand-client fleets (DESIGN.md §12), and
// each event costs in proportion to the live work. Events live in a
// pooled 4-ary heap keyed on (time, sequence), so same-timestamp events
// fire in scheduling order; the heap holds only live events, because
// Cancel takes a retransmit timer out at once instead of leaving it to
// come due. A sleep whose wakeup would be the next event anyway, as it
// is for most CPU charges on a lightly loaded client, moves the clock in
// place and queues nothing. Other wakeups are heap entries rather than
// closures, and a parking process runs the event loop itself — one
// whose own wakeup comes due next resumes without switching at all. CPU
// time and lock waits are charged to interned Labels, slice indexes
// rather than string keys. Close ends a simulation's parked processes
// and hands its event storage to the next New.
package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// Time is virtual time since the start of the simulation.
type Time = time.Duration

// event is a scheduled callback or process wakeup. Events fire in
// (at, seq) order, so same-timestamp events run in the order they were
// scheduled (FIFO). Fired and canceled events return to the simulator's
// pool; gen distinguishes a recycled event from the scheduling an Event
// handle refers to.
type event struct {
	at   Time
	seq  uint64
	gen  uint32
	idx  int32 // position in the heap while queued
	proc *Proc // wakeup target; nil for callback events
	fn   func()
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
	if e.ev != nil && e.ev.gen == e.gen {
		e.s.events.remove(int(e.ev.idx))
		e.s.recycle(e.ev)
	}
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

// Sim is a discrete-event simulation instance. It is not safe for use from
// multiple OS threads; all interaction happens from the Run caller or the
// process Run has resumed.
type Sim struct {
	now    Time
	seq    uint64
	seed   int64
	events eventQueue
	fired  uint64   // events popped, for yieldEvery
	pool   []*event // recycled event entries
	limit  Time     // current Run's time limit (0 = none)
	rng    *rand.Rand
	prof   *Profiler

	procSeq int
	procs   []*Proc // live (spawned, unterminated) processes
	closed  bool
}

// New returns a simulator with the given deterministic seed.
func New(seed int64) *Sim {
	s := &Sim{
		seed: seed,
		rng:  rand.New(rand.NewSource(seed)),
		prof: NewProfiler(),
	}
	st := takeSpare()
	s.events, s.pool, s.procs = st.heap, st.pool, st.procs
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

// wake schedules a process wakeup at absolute time t — the allocation-free
// path behind a queued Sleep and every unpark.
func (s *Sim) wake(t Time, p *Proc) {
	if t < s.now {
		t = s.now
	}
	ev := s.alloc()
	ev.at, ev.seq, ev.proc = t, s.seq, p
	s.seq++
	s.events.push(ev)
}

// schedule runs the event loop: it pops and executes events until a
// process wakeup comes due (returning that process), or until the queue
// drains or the limit is reached (returning nil). It runs on the Run
// caller or inline in a parking process; a panic in a callback unwinds
// whichever of the two that is.
func (s *Sim) schedule() *Proc {
	for len(s.events) > 0 {
		next := s.events[0]
		if s.pastLimit(next.at) {
			s.now = s.limit
			return nil
		}
		s.events.remove(0)
		s.now = next.at
		s.tick()
		p, fn := next.proc, next.fn
		s.recycle(next)
		if p != nil {
			if p.ended {
				continue
			}
			return p
		}
		fn()
	}
	return nil
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
// virtual time. Once a process has run, any panic — in a process, or in a
// callback run on its behalf — leaves Run as one formatted panic carrying
// the value; a callback's panic before that propagates unchanged.
func (s *Sim) Run(limit Time) Time {
	s.limit = limit
	p := s.schedule()
	if p == nil {
		return s.now
	}
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("sim: process panicked at t=%v: %v", s.now, r))
		}
	}()
	for p != nil {
		p = s.handoff(p)
	}
	return s.now
}

// Close ends the simulation. Every process that has not terminated is
// unwound where it is parked — its deferred calls run, and must not block
// — and its coroutine is freed; queued events are discarded and the event
// and process storage goes to a later New. Run must not be called again, but Now,
// Profiler and the other accessors stay valid. Close is idempotent.
func (s *Sim) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for len(s.procs) > 0 {
		p := s.procs[len(s.procs)-1]
		p.stop()
		if !p.ended { // never started, so its body never ran
			s.retire(p)
		}
	}
	for _, ev := range s.events {
		s.recycle(ev)
	}
	clear(s.events)
	putSpare(eventStore{heap: s.events[:0], pool: s.pool, procs: s.procs})
	s.events, s.pool, s.procs = nil, nil, nil
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
// its pool, which holds every event the simulation allocated, and its
// empty process list.
type eventStore struct {
	heap  eventQueue
	pool  []*event
	procs []*Proc
}

// spares keeps closed simulations' event storage for New, so a run does
// not pay again for the event blocks, heap array and process list a
// previous run grew.
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

// Proc is a simulated thread of control. Every blocking primitive takes the
// Proc so the scheduler knows which coroutine to park and resume.
type Proc struct {
	s     *Sim
	id    int
	name  string
	slot  int // index in s.procs while live
	ended bool

	// resume runs the coroutine until it yields the process to run next
	// (ok) or its body returns (!ok); yield is the coroutine's side of
	// that, and reports false once Close has stopped it.
	resume func() (next *Proc, ok bool)
	yield  func(next *Proc) bool
	stop   func()
}

// stopped is the panic value that unwinds a process Close has stopped.
type stopped struct{}

// Go spawns a process that begins running at the current virtual time.
func (s *Sim) Go(name string, fn func(p *Proc)) *Proc {
	s.procSeq++
	p := &Proc{s: s, id: s.procSeq, name: name, slot: len(s.procs)}
	s.procs = append(s.procs, p)
	p.resume, p.stop = iter.Pull(func(yield func(*Proc) bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
	s.wake(s.now, p)
	return p
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
// be the next event anyway — the queue is empty or its head is strictly
// later, and Run's limit does not stop the clock first — Sleep moves the
// clock in place: no queue entry, no event loop, no switch. The wakeup
// still counts as a fired event, so the loop yields to the Go scheduler
// as often as before. A tie with the head queues, so same-timestamp
// events keep their FIFO order; the fast path takes no sequence number,
// and sequence numbers are only ever compared, so every other event fires
// in the same order as if the wakeup had been queued.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		return
	}
	s := p.s
	t := s.now + d
	if (len(s.events) == 0 || s.events[0].at > t) && !s.pastLimit(t) {
		s.now = t
		s.tick()
		return
	}
	s.wake(t, p)
	p.park()
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
	TotalHold    Time
	waits        Profiler // wait time and contentions by the holder's label
	lockedAt     Time
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
		m.lockedAt = m.s.now
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

// Unlock releases the mutex; ownership passes FIFO to the oldest waiter.
func (m *Mutex) Unlock(p *Proc) {
	if m.holder != p {
		panic(fmt.Sprintf("sim: %s unlocked by %s, held by %v", m.name, p.name, m.holder))
	}
	m.TotalHold += m.s.now - m.lockedAt
	if len(m.waiters) == 0 {
		m.holder = nil
		m.because = Label{}
		return
	}
	next := popWaiter(&m.waiters)
	m.holder = next
	m.lockedAt = m.s.now
	m.s.wake(m.s.now, next)
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

// Semaphore is a counting semaphore with FIFO wakeup; a capacity-k
// semaphore models a k-CPU machine.
type Semaphore struct {
	s       *Sim
	name    string
	free    int
	cap     int
	waiters []*Proc
}

// NewSemaphore returns a semaphore with the given capacity.
func (s *Sim) NewSemaphore(name string, capacity int) *Semaphore {
	if capacity < 1 {
		panic("sim: semaphore capacity must be >= 1")
	}
	return &Semaphore{s: s, name: name, free: capacity, cap: capacity}
}

// Capacity returns the semaphore's capacity.
func (sem *Semaphore) Capacity() int { return sem.cap }

// Acquire takes one unit, blocking in virtual time if none are free.
func (sem *Semaphore) Acquire(p *Proc) {
	if sem.free > 0 {
		sem.free--
		return
	}
	sem.waiters = append(sem.waiters, p)
	p.park()
}

// Release returns one unit, waking the oldest waiter if any.
func (sem *Semaphore) Release() {
	if len(sem.waiters) > 0 {
		next := popWaiter(&sem.waiters)
		sem.s.wake(sem.s.now, next)
		return
	}
	sem.free++
	if sem.free > sem.cap {
		panic("sim: semaphore over-released")
	}
}

// WaitQueue parks processes until they are signaled, like the kernel's
// wait_event/wake_up pairs. Callers must re-check their predicate after
// Wait returns (standard condition-variable discipline).
type WaitQueue struct {
	s       *Sim
	name    string
	waiters []*Proc
}

// NewWaitQueue returns a named wait queue.
func (s *Sim) NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{s: s, name: name}
}

// Wait parks p until Signal or Broadcast wakes it.
func (q *WaitQueue) Wait(p *Proc) {
	q.waiters = append(q.waiters, p)
	p.park()
}

// Signal wakes the oldest waiter, if any.
func (q *WaitQueue) Signal() {
	if len(q.waiters) == 0 {
		return
	}
	next := popWaiter(&q.waiters)
	q.s.wake(q.s.now, next)
}

// Broadcast wakes every waiter. Waking only schedules, so the waiters
// array is emptied in place and reused by the next Wait.
func (q *WaitQueue) Broadcast() {
	for _, p := range q.waiters {
		q.s.wake(q.s.now, p)
	}
	clear(q.waiters)
	q.waiters = q.waiters[:0]
}

// Waiting returns the number of parked processes.
func (q *WaitQueue) Waiting() int { return len(q.waiters) }
