package sim

import (
	"cmp"
	"slices"
	"strings"
	"sync"
)

// CPUPool models a machine's processors. Executing code costs virtual time
// while occupying one CPU slot; on a 1-CPU machine the writer thread and
// nfs_flushd serialize, on the paper's 2-CPU client they overlap. This is
// the mechanism behind §3.5's observation that "even a single writer
// thread uses more than one CPU".
type CPUPool struct {
	s       *Sim
	prof    *Profiler
	cpus    int
	free    int     // idle processors
	waiters []*Proc // blocked for a processor, oldest first
	Busy    Time    // aggregate CPU time consumed across all processors

	// Jitter adds a deterministic pseudo-random factor in
	// [1-Jitter, 1+Jitter] to every execution, standing in for the cache,
	// TLB and interrupt noise real kernels exhibit (§2.2 discusses how
	// noisy Linux measurements are; a little modeled noise keeps latency
	// histograms from collapsing to single buckets).
	Jitter float64
}

// NewCPUPool returns a pool of n processors whose execution time is
// attributed to the simulation's profiler.
func (s *Sim) NewCPUPool(n int) *CPUPool {
	if n < 1 {
		panic("sim: a CPU pool needs at least one processor")
	}
	return &CPUPool{s: s, prof: s.prof, cpus: n, free: n}
}

// CPUs returns the number of processors in the pool.
//
//lint:allow unusedexport read by the nfssim and chaos tests of the pools a test bed builds
func (c *CPUPool) CPUs() int { return c.cpus }

// Use executes d of CPU work on some processor, blocking first if all
// processors are busy. The label attributes the cost in the profiler,
// mirroring the sample-driven kernel profiler the paper uses in §3.4.
func (c *CPUPool) Use(p *Proc, label Label, d Time) {
	if d <= 0 {
		return
	}
	if c.Jitter > 0 {
		f := 1 + c.Jitter*(2*c.s.rng.Float64()-1)
		d = Time(float64(d) * f)
	}
	c.acquire(p)
	p.Sleep(d)
	c.release()
	c.Busy += d
	c.prof.Add(label, d)
}

// UseThen is Use for task p: it charges d of CPU work under label and
// then runs k. With a processor free and the charge's end the next event
// anyway, k runs as soon as the current step returns.
func (c *CPUPool) UseThen(p *Proc, label Label, d Time, k func()) {
	if d <= 0 {
		p.proceed(k)
		return
	}
	if c.Jitter > 0 {
		f := 1 + c.Jitter*(2*c.s.rng.Float64()-1)
		d = Time(float64(d) * f)
	}
	p.then(p.onCPU)
	p.after, p.pool, p.label, p.charge = k, c, label, d
	if c.free > 0 {
		c.free--
		p.chargeCPU()
		return
	}
	c.waiters = append(c.waiters, p)
}

// chargeCPU sleeps through a task's CPU charge on the processor it holds.
func (p *Proc) chargeCPU() {
	s := p.s
	t := s.now + p.charge
	if s.inPlace(t) {
		s.now = t
		s.tick()
		p.charged()
		return
	}
	p.next = p.onCharged
	s.wake(t, p)
}

// charged frees a task's processor and books its charge, as Use does
// after its sleep, and goes on to the task's continuation.
func (p *Proc) charged() {
	c, d := p.pool, p.charge
	c.release()
	c.Busy += d
	c.prof.Add(p.label, d)
	p.pool = nil
	p.next, p.after, p.inline = p.after, nil, true
}

// acquire takes a processor, blocking in virtual time if none is idle.
func (c *CPUPool) acquire(p *Proc) {
	if c.free > 0 {
		c.free--
		return
	}
	c.waiters = append(c.waiters, p)
	p.park()
}

// release frees a processor, handing it to the oldest waiter if any.
func (c *CPUPool) release() {
	if len(c.waiters) > 0 {
		c.s.wakeNow(popWaiter(&c.waiters))
		return
	}
	c.free++
	if c.free > c.cpus {
		panic("sim: CPU pool over-released")
	}
}

// Label is an interned code-path name for the profiler and for lock
// contention attribution. Each layer registers its names once, in
// package-level variables, so charging CPU time indexes a slice instead
// of hashing a string. The zero Label is the empty name.
type Label struct{ id int32 }

// labels is the process-wide intern table: names by Label, and the
// reverse index that makes NewLabel idempotent.
var labels = struct {
	mu    sync.RWMutex
	names []string
	ids   map[string]Label
}{names: []string{""}, ids: map[string]Label{"": {}}}

// NewLabel returns the Label for name, registering it on first use; every
// call with the same name returns the same Label.
func NewLabel(name string) Label {
	labels.mu.Lock()
	defer labels.mu.Unlock()
	if l, ok := labels.ids[name]; ok {
		return l
	}
	l := Label{int32(len(labels.names))}
	labels.names = append(labels.names, name)
	labels.ids[name] = l
	return l
}

// lookupLabel returns the Label registered for name, if any.
func lookupLabel(name string) (Label, bool) {
	labels.mu.RLock()
	defer labels.mu.RUnlock()
	l, ok := labels.ids[name]
	return l, ok
}

// labelNames returns the names registered so far, indexed by Label. The
// table only grows by appending, so the snapshot stays valid unlocked.
func labelNames() []string {
	labels.mu.RLock()
	defer labels.mu.RUnlock()
	return labels.names
}

// tally is one label's accumulated time and count.
type tally struct {
	total Time
	calls int
}

// Profiler accumulates virtual CPU time per code-path label. It stands in
// for the sample-driven histogram profiler the paper used to find
// nfs_find_request / nfs_update_request (§3.4) and the lock section
// (§3.5) among the kernel's top CPU consumers.
type Profiler struct {
	by []tally // indexed by Label
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler { return &Profiler{} }

// Add records d of CPU time against label.
func (pr *Profiler) Add(label Label, d Time) {
	if int(label.id) >= len(pr.by) {
		pr.grow(label)
	}
	t := &pr.by[label.id]
	t.total += d
	t.calls++
}

// grow sizes the tallies for l and every other label registered so far,
// which in practice is all of them: layers register theirs at package
// initialization.
func (pr *Profiler) grow(l Label) {
	n := max(int(l.id)+1, len(labelNames()))
	pr.by = append(pr.by, make([]tally, n-len(pr.by))...)
}

// get returns the tally for the label registered as name.
func (pr *Profiler) get(name string) tally {
	if l, ok := lookupLabel(name); ok && int(l.id) < len(pr.by) {
		return pr.by[l.id]
	}
	return tally{}
}

// Total returns the accumulated CPU time for the label named name.
func (pr *Profiler) Total(name string) Time { return pr.get(name).total }

// ProfileEntry is one row of a profile report.
type ProfileEntry struct {
	Label string
	Total Time
	Calls int
}

// Top returns the n largest CPU consumers, descending; n <= 0 means all.
// Only labels recorded since the last Reset appear.
func (pr *Profiler) Top(n int) []ProfileEntry {
	names := labelNames()
	out := make([]ProfileEntry, 0, len(pr.by))
	for l, t := range pr.by {
		if t.calls > 0 {
			out = append(out, ProfileEntry{Label: names[l], Total: t.total, Calls: t.calls})
		}
	}
	slices.SortFunc(out, func(a, b ProfileEntry) int {
		if c := cmp.Compare(b.Total, a.Total); c != 0 {
			return c
		}
		return strings.Compare(a.Label, b.Label)
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
