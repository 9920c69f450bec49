package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// A task's panic leaves Run as the same formatted panic a process panic
// gives, whether the task panics on its first run, inside Run's first
// pass through the event loop, or after a wakeup in a later Run.
func TestTaskPanicPropagates(t *testing.T) {
	runPanics := func(s *Sim, limit Time) (msg string) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected panic from Run")
			}
			msg, _ = r.(string)
		}()
		s.Run(limit)
		return ""
	}

	first := New(1)
	defer first.Close()
	first.NewTask("boom", func() { panic("kaboom") })
	if got, want := runPanics(first, 0), "sim: process panicked at t=0s: kaboom"; got != want {
		t.Fatalf("first run: panic %q, want %q", got, want)
	}

	later := New(1)
	defer later.Close()
	var p *Proc
	p = later.NewTask("boom", func() {
		p.SleepThen(time.Hour, func() { panic("kaboom") })
	})
	later.Run(time.Millisecond)
	if got, want := runPanics(later, 0), "sim: process panicked at t=1h0m0s: kaboom"; got != want {
		t.Fatalf("later run: panic %q, want %q", got, want)
	}
}

// A callback that panics before any process or task has run propagates
// its value unchanged: here it was scheduled first, so it fires before
// the task's first run at the same instant.
func TestCallbackPanicBeforeTasksIsUnwrapped(t *testing.T) {
	s := New(1)
	defer s.Close()
	s.At(0, func() { panic(errBoom) })
	s.NewTask("late", func() { t.Error("the task ran before the callback") })
	defer func() {
		if r := recover(); r != errBoom {
			t.Fatalf("panic %v, want the callback's own value", r)
		}
	}()
	s.Run(0)
}

var errBoom = fmt.Errorf("boom")

// Calling a blocking primitive from a task, a Then primitive from a
// process, or two Then primitives in one step is a bug and panics.
func TestTaskMisusePanics(t *testing.T) {
	mustPanic := func(name, want string, build func(s *Sim)) {
		t.Helper()
		s := New(1)
		defer s.Close()
		build(s)
		defer func() {
			r, _ := recover().(string)
			if !strings.Contains(r, want) {
				t.Errorf("%s: panic %q, want one containing %q", name, r, want)
			}
		}()
		s.Run(0)
	}
	mustPanic("blocking wait in a task", "used a blocking primitive", func(s *Sim) {
		q := s.NewWaitQueue()
		var p *Proc
		p = s.NewTask("t", func() { q.Wait(p) })
	})
	mustPanic("then in a process", "used a task primitive", func(s *Sim) {
		s.Go("p", func(p *Proc) { p.SleepThen(time.Millisecond, func() {}) })
	})
	mustPanic("two waits in one step", "blocked twice", func(s *Sim) {
		q := s.NewWaitQueue()
		var p *Proc
		p = s.NewTask("t", func() {
			q.WaitThen(p, func() {})
			p.SleepThen(time.Millisecond, func() {})
		})
	})
}

// A task never touches a goroutine: Close leaves nothing behind, and a
// closed task never runs again.
func TestCloseRetiresTasks(t *testing.T) {
	s := New(1)
	q := s.NewWaitQueue()
	var p *Proc
	p = s.NewTask("waiter", func() { q.WaitThen(p, func() { t.Error("a closed task ran") }) })
	s.Run(0)
	if s.Live() != 1 {
		t.Fatalf("live = %d before Close, want the parked task", s.Live())
	}
	s.Close()
	if s.Live() != 0 {
		t.Fatalf("live = %d after Close", s.Live())
	}
}

// scriptOp is one step of a differential script.
type scriptOp struct {
	kind  byte // opUse ... opBroadcast
	label int
	d     Time
}

const (
	opUse = iota
	opLock
	opUnlock
	opWait
	opSleep
	opSignal
	opBroadcast
)

// diffScript is a decoded differential script: the steps of the subject,
// which runs once as a process and once as a task, and of a rival process
// that contends with it, plus background callbacks and Run limits.
type diffScript struct {
	cpus      int
	jitter    float64
	limit     Time // first Run's limit (0 = none); a second Run drains
	subject   []scriptOp
	rival     []scriptOp
	callbacks []scriptOp // d is the time; label picks record, Signal or Broadcast
}

// decodeScript reads a script from fuzz bytes: a config byte, a limit
// byte (tens of µs), then three-byte records (kind, arg, time in µs).
// Kinds 0–6 are subject steps, 8–14 rival steps, 7 and 15 callbacks.
func decodeScript(data []byte) diffScript {
	sc := diffScript{cpus: 1}
	if len(data) > 0 {
		sc.cpus += int(data[0] & 1)
		if data[0]&2 != 0 {
			sc.jitter = 0.2
		}
	}
	if len(data) > 1 {
		sc.limit = Time(data[1]) * 10 * time.Microsecond
	}
	for rec := data[min(2, len(data)):]; len(rec) >= 3; rec = rec[3:] {
		kind, arg := rec[0]%16, int(rec[1])
		op := scriptOp{kind: kind % 8, label: arg % 3, d: Time(rec[2]) * time.Microsecond}
		switch {
		case op.kind == 7:
			sc.callbacks = append(sc.callbacks, op)
		case kind < 8:
			sc.subject = append(sc.subject, op)
		default:
			sc.rival = append(sc.rival, op)
		}
	}
	return sc
}

// diffWorld is one run of a script: the shared resources and everything
// the run recorded.
type diffWorld struct {
	s      *Sim
	cpu    *CPUPool
	bkl    *Mutex
	q      *WaitQueue
	labels [3]Label
	trace  []string
}

func (w *diffWorld) record(who string, i int) {
	w.trace = append(w.trace, fmt.Sprintf("%v %s %d", w.s.now, who, i))
}

// procScript runs ops as blocking calls on process p, unlocking at the
// end if it still holds the BKL.
func (w *diffWorld) procScript(p *Proc, who string, ops []scriptOp) {
	held := false
	for i, op := range ops {
		w.record(who, i)
		switch op.kind {
		case opUse:
			w.cpu.Use(p, w.labels[op.label], op.d)
		case opLock:
			if !held {
				w.bkl.Lock(p, w.labels[op.label])
				held = true
			}
		case opUnlock:
			if held {
				w.bkl.Unlock(p)
				held = false
			}
		case opWait:
			w.q.Wait(p)
		case opSleep:
			p.Sleep(op.d)
		case opSignal:
			w.q.Signal()
		case opBroadcast:
			w.q.Broadcast()
		}
	}
	w.record(who, len(ops))
	if held {
		w.bkl.Unlock(p)
	}
}

// taskScript runs the same ops as a task: each blocking step ends the
// continuation with its Then form, and step, bound once, resumes it.
type taskScript struct {
	w    *diffWorld
	p    *Proc
	ops  []scriptOp
	i    int
	held bool
	step func()
}

func (ts *taskScript) run() {
	w, p := ts.w, ts.p
	for ts.i < len(ts.ops) {
		op := ts.ops[ts.i]
		w.record("subject", ts.i)
		ts.i++
		switch op.kind {
		case opUse:
			w.cpu.UseThen(p, w.labels[op.label], op.d, ts.step)
			return
		case opLock:
			if !ts.held {
				ts.held = true
				w.bkl.LockThen(p, w.labels[op.label], ts.step)
				return
			}
		case opUnlock:
			if ts.held {
				w.bkl.Unlock(p)
				ts.held = false
			}
		case opWait:
			w.q.WaitThen(p, ts.step)
			return
		case opSleep:
			p.SleepThen(op.d, ts.step)
			return
		case opSignal:
			w.q.Signal()
		case opBroadcast:
			w.q.Broadcast()
		}
	}
	if ts.i == len(ts.ops) {
		w.record("subject", ts.i)
		ts.i++
		if ts.held {
			w.bkl.Unlock(p)
		}
	}
}

// runScript runs sc with the subject as a task or a process and returns
// the world it left.
func runScript(sc diffScript, asTask bool) *diffWorld {
	s := New(7)
	w := &diffWorld{s: s, cpu: s.NewCPUPool(sc.cpus), bkl: s.NewMutex("bkl"), q: s.NewWaitQueue()}
	w.cpu.Jitter = sc.jitter
	for i := range w.labels {
		w.labels[i] = NewLabel(fmt.Sprintf("fuzz_%d", i))
	}
	for i, cb := range sc.callbacks {
		s.At(cb.d, func() {
			w.record("callback", i)
			switch cb.label {
			case 1:
				w.q.Signal()
			case 2:
				w.q.Broadcast()
			}
		})
	}
	s.Go("rival", func(p *Proc) { w.procScript(p, "rival", sc.rival) })
	if asTask {
		ts := &taskScript{w: w, ops: sc.subject}
		ts.step = ts.run
		ts.p = s.NewTask("subject", ts.step)
	} else {
		s.Go("subject", func(p *Proc) { w.procScript(p, "subject", sc.subject) })
	}
	if sc.limit > 0 {
		s.Run(sc.limit)
		w.record("limit", 0)
	}
	s.Run(0)
	w.record("end", 0)
	s.Close()
	return w
}

// checkTaskMatchesProc runs sc both ways and fails on any difference in
// what the simulation did.
func checkTaskMatchesProc(t *testing.T, sc diffScript) {
	t.Helper()
	proc, task := runScript(sc, false), runScript(sc, true)
	if !reflect.DeepEqual(proc.trace, task.trace) {
		t.Fatalf("traces differ:\nprocess %q\ntask    %q", proc.trace, task.trace)
	}
	if a, b := proc.s.prof.Top(0), task.s.prof.Top(0); !reflect.DeepEqual(a, b) {
		t.Fatalf("profiles differ:\nprocess %+v\ntask    %+v", a, b)
	}
	pm, tm := proc.bkl, task.bkl
	if pm.Acquisitions != tm.Acquisitions || pm.Contentions != tm.Contentions || pm.TotalWait != tm.TotalWait {
		t.Fatalf("lock stats differ: process %d/%d/%v, task %d/%d/%v",
			pm.Acquisitions, pm.Contentions, pm.TotalWait, tm.Acquisitions, tm.Contentions, tm.TotalWait)
	}
	if a, b := pm.WaitBreakdown(), tm.WaitBreakdown(); !reflect.DeepEqual(a, b) {
		t.Fatalf("wait breakdowns differ: process %v, task %v", a, b)
	}
	if proc.cpu.Busy != task.cpu.Busy {
		t.Fatalf("CPU busy differs: process %v, task %v", proc.cpu.Busy, task.cpu.Busy)
	}
}

// taskEdgeCases are the hand-written seeds of FuzzTaskMatchesProc, which
// go test runs on every invocation.
var taskEdgeCases = []struct {
	name string
	data []byte
}{
	// The rival waits; the subject signals it, which puts a wakeup in the
	// ready FIFO, then sleeps: the sleep ties with a ready wakeup and must
	// queue rather than move the clock. A callback at the same instant
	// as the subject's second wakeup ties with the heap too.
	{"ready tie", []byte{0, 0,
		8 + opWait, 0, 0,
		opSleep, 0, 1,
		opSignal, 0, 0,
		opSleep, 0, 5,
		7, 0, 6,
		opUse, 0, 3}},
	// Run's limit (50 µs) falls inside the subject's sleep and its CPU
	// charge, so the fast path is refused and the wakeups queue.
	{"limit blocks fast path", []byte{0, 5,
		opSleep, 0, 40,
		opSleep, 0, 20,
		opUse, 1, 30,
		opUse, 1, 0}},
	// The rival takes the BKL first and holds it across a CPU charge;
	// the subject contends, blamed on the rival's label, then holds it
	// over a charge of its own while the rival contends back. Jittered
	// charges on two CPUs draw the shared random stream in turn.
	{"contended BKL", []byte{3, 0,
		8 + opLock, 2, 0,
		8 + opUse, 2, 50,
		8 + opUnlock, 0, 0,
		8 + opSleep, 0, 5,
		8 + opLock, 0, 0,
		8 + opUnlock, 0, 0,
		opLock, 1, 0,
		opUse, 1, 30,
		opSleep, 0, 10,
		opUnlock, 0, 0,
		opUse, 0, 20}},
	// Both contend for one CPU while background callbacks signal and
	// broadcast the wait queue the subject parks on.
	{"cpu and waits", []byte{0, 0,
		8 + opUse, 0, 40,
		8 + opWait, 0, 0,
		8 + opUse, 0, 10,
		opUse, 1, 10,
		opWait, 0, 0,
		opUse, 2, 7,
		opWait, 0, 0,
		opBroadcast, 0, 0,
		7, 1, 30,
		7, 2, 90,
		7, 0, 90}},
}

func FuzzTaskMatchesProc(f *testing.F) {
	for _, c := range taskEdgeCases {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		checkTaskMatchesProc(t, decodeScript(data))
	})
}
