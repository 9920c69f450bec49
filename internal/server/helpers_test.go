package server

import (
	"time"

	"repro/internal/disksim"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

func newTestVolume(s *sim.Sim) *disksim.RAID4 {
	return disksim.NewRAID4(s, 4, time.Millisecond, 10_000_000)
}

func newTestDisk(s *sim.Sim) *disksim.Disk {
	return disksim.New(s, time.Millisecond, 20_000_000)
}

// step is one backend call made the way an nfsd worker makes it: it
// returns true when the call completed, or false when it parked task p
// with retry, which calls the step again.
type step func(p *sim.Proc, retry func()) bool

// stepper runs the steps gen yields, in order, on one task; gen returns
// nil after the last step. Each step is fetched once, when the previous
// one completes, so a step may depend on the clock at that moment.
type stepper struct {
	p     *sim.Proc
	gen   func(i int) step
	i     int
	cur   step
	retry func()
}

// runSteps starts a task that runs the steps gen yields.
func runSteps(s *sim.Sim, gen func(i int) step) {
	st := &stepper{gen: gen}
	st.retry = st.run
	st.p = s.NewTask("w", st.retry)
}

func (st *stepper) run() {
	for {
		if st.cur == nil {
			if st.cur = st.gen(st.i); st.cur == nil {
				return
			}
		}
		if !st.cur(st.p, st.retry) {
			return
		}
		st.cur = nil
		st.i++
	}
}

// steps yields the given steps in order.
func steps(list ...step) func(int) step {
	return func(i int) step {
		if i < len(list) {
			return list[i]
		}
		return nil
	}
}

// writeStep is one HandleWrite, storing its result in res if res is not
// nil.
func writeStep(b Backend, ino *Inode, args nfsproto.WriteArgs, res *nfsproto.WriteRes) step {
	return func(p *sim.Proc, retry func()) bool {
		r, ok := b.HandleWrite(p, ino, args, retry)
		if ok && res != nil {
			*res = r
		}
		return ok
	}
}

// sleepStep waits d.
func sleepStep(d sim.Time) step {
	slept := false
	return func(p *sim.Proc, retry func()) bool {
		if slept {
			return true
		}
		slept = true
		p.SleepThen(d, retry)
		return false
	}
}

// doStep runs fn; it never waits.
func doStep(fn func()) step {
	return func(*sim.Proc, func()) bool {
		fn()
		return true
	}
}
