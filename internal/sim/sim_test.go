package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30*time.Microsecond, func() { got = append(got, 3) })
	s.At(10*time.Microsecond, func() { got = append(got, 1) })
	s.At(20*time.Microsecond, func() { got = append(got, 2) })
	s.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if s.Now() != 30*time.Microsecond {
		t.Fatalf("final time = %v, want 30µs", s.Now())
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", got)
		}
	}
}

// Property: regardless of insertion order, events fire sorted by time, and
// equal times preserve insertion order.
func TestEventOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) > 200 {
			raw = raw[:200]
		}
		s := New(1)
		type fired struct {
			at  Time
			ins int
		}
		var got []fired
		for i, r := range raw {
			i, at := i, Time(r%50)*time.Microsecond
			s.At(at, func() { got = append(got, fired{at, i}) })
		}
		s.Run(0)
		if len(got) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].at != got[j].at {
				return got[i].at < got[j].at
			}
			return got[i].ins < got[j].ins
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLimit(t *testing.T) {
	s := New(1)
	fired := false
	s.At(time.Second, func() { fired = true })
	s.Run(100 * time.Millisecond)
	if fired {
		t.Fatal("event beyond limit fired")
	}
	if s.Now() != 100*time.Millisecond {
		t.Fatalf("now = %v, want limit", s.Now())
	}
	s.Run(0)
	if !fired {
		t.Fatal("event did not fire after limit lifted")
	}
}

func TestEventCancel(t *testing.T) {
	s := New(1)
	fired := false
	ev := s.At(time.Millisecond, func() { fired = true })
	ev.Cancel()
	ev.Cancel() // double-cancel is a no-op
	s.Run(0)
	if fired {
		t.Fatal("canceled event fired")
	}
	var zero Event
	zero.Cancel() // zero-value handle is a no-op
}

func TestProcSleep(t *testing.T) {
	s := New(1)
	var wake Time
	s.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		wake = s.Now()
	})
	s.Run(0)
	if wake != 5*time.Millisecond {
		t.Fatalf("woke at %v, want 5ms", wake)
	}
	if s.Live() != 0 {
		t.Fatalf("live = %d, want 0", s.Live())
	}
}

func TestProcSleepZeroAndNegative(t *testing.T) {
	s := New(1)
	steps := 0
	s.Go("p", func(p *Proc) {
		p.Sleep(0)
		steps++
		p.Sleep(-time.Second)
		steps++
	})
	s.Run(0)
	if steps != 2 {
		t.Fatalf("steps = %d, want 2", steps)
	}
	if s.Now() != 0 {
		t.Fatalf("time advanced by non-positive sleeps: %v", s.Now())
	}
}

func TestTwoProcsInterleave(t *testing.T) {
	s := New(1)
	var order []string
	s.Go("a", func(p *Proc) {
		p.Sleep(time.Millisecond)
		order = append(order, "a1")
		p.Sleep(2 * time.Millisecond)
		order = append(order, "a3")
	})
	s.Go("b", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		order = append(order, "b2")
	})
	s.Run(0)
	want := []string{"a1", "b2", "a3"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from Run")
		}
	}()
	s := New(1)
	s.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	s.Run(0)
}

func TestMutexExclusionAndFIFO(t *testing.T) {
	s := New(1)
	m := s.NewMutex("bkl")
	var order []string
	hold := func(name string, start, dur Time) {
		s.Go(name, func(p *Proc) {
			p.Sleep(start)
			m.Lock(p, NewLabel(name))
			order = append(order, name+"+")
			p.Sleep(dur)
			order = append(order, name+"-")
			m.Unlock(p)
		})
	}
	hold("a", 0, 10*time.Microsecond)
	hold("b", 1*time.Microsecond, 10*time.Microsecond)
	hold("c", 2*time.Microsecond, 10*time.Microsecond)
	s.Run(0)
	want := []string{"a+", "a-", "b+", "b-", "c+", "c-"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v (FIFO violated)", order, want)
		}
	}
	if m.Acquisitions != 3 || m.Contentions != 2 {
		t.Fatalf("acq=%d cont=%d, want 3, 2", m.Acquisitions, m.Contentions)
	}
	if m.Held() {
		t.Fatal("mutex still held after all procs done")
	}
}

func TestMutexWaitAttribution(t *testing.T) {
	s := New(1)
	m := s.NewMutex("bkl")
	s.Go("sender", func(p *Proc) {
		m.Lock(p, NewLabel("sock_sendmsg"))
		p.Sleep(50 * time.Microsecond)
		m.Unlock(p)
	})
	s.Go("writer", func(p *Proc) {
		p.Sleep(time.Microsecond)
		m.Lock(p, NewLabel("nfs_commit_write"))
		m.Unlock(p)
	})
	s.Run(0)
	wb := m.WaitBreakdown()
	if wb["sock_sendmsg"] != 49*time.Microsecond {
		t.Fatalf("wait attributed to sock_sendmsg = %v, want 49µs", wb["sock_sendmsg"])
	}
	if m.TotalWait != 49*time.Microsecond {
		t.Fatalf("TotalWait = %v", m.TotalWait)
	}
}

func TestMutexWrongUnlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := New(1)
	m := s.NewMutex("m")
	s.Go("a", func(p *Proc) { m.Lock(p, NewLabel("a")); p.Sleep(time.Second) })
	s.Go("b", func(p *Proc) { p.Sleep(time.Millisecond); m.Unlock(p) })
	s.Run(0)
}

func TestCPUPoolCapacity(t *testing.T) {
	s := New(1)
	cpus := s.NewCPUPool(2)
	var concurrent, maxConcurrent int
	for i := 0; i < 5; i++ {
		s.Go("w", func(p *Proc) {
			cpus.acquire(p)
			concurrent++
			if concurrent > maxConcurrent {
				maxConcurrent = concurrent
			}
			p.Sleep(time.Millisecond)
			concurrent--
			cpus.release()
		})
	}
	end := s.Run(0)
	if maxConcurrent != 2 {
		t.Fatalf("max concurrency = %d, want 2", maxConcurrent)
	}
	// 5 jobs of 1ms on 2 cpus: 3 rounds => 3ms.
	if end != 3*time.Millisecond {
		t.Fatalf("end = %v, want 3ms", end)
	}
}

func TestCPUPoolInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).NewCPUPool(0)
}

func TestCPUPoolOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := New(1)
	s.NewCPUPool(1).release()
}

func TestWaitQueueSignalAndBroadcast(t *testing.T) {
	s := New(1)
	q := s.NewWaitQueue()
	woken := 0
	for i := 0; i < 3; i++ {
		s.Go("w", func(p *Proc) {
			q.Wait(p)
			woken++
		})
	}
	s.Go("signaler", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Signal()
		p.Sleep(time.Millisecond)
		q.Broadcast()
	})
	s.Run(0)
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
	if q.Waiting() != 0 {
		t.Fatalf("waiting = %d, want 0", q.Waiting())
	}
}

func TestWaitQueueSignalEmpty(t *testing.T) {
	s := New(1)
	q := s.NewWaitQueue()
	q.Signal() // no-op
	q.Broadcast()
	s.Run(0)
}

func TestCPUPoolSerializesOnUniprocessor(t *testing.T) {
	s := New(1)
	cpu := s.NewCPUPool(1)
	for i := 0; i < 2; i++ {
		s.Go("w", func(p *Proc) { cpu.Use(p, NewLabel("work"), time.Millisecond) })
	}
	end := s.Run(0)
	if end != 2*time.Millisecond {
		t.Fatalf("end = %v, want 2ms (serialized)", end)
	}
	if cpu.Busy != 2*time.Millisecond {
		t.Fatalf("busy = %v", cpu.Busy)
	}
}

func TestCPUPoolOverlapsOnSMP(t *testing.T) {
	s := New(1)
	cpu := s.NewCPUPool(2)
	for i := 0; i < 2; i++ {
		s.Go("w", func(p *Proc) { cpu.Use(p, NewLabel("work"), time.Millisecond) })
	}
	end := s.Run(0)
	if end != time.Millisecond {
		t.Fatalf("end = %v, want 1ms (overlapped)", end)
	}
}

func TestCPUUseZeroIsFree(t *testing.T) {
	s := New(1)
	cpu := s.NewCPUPool(1)
	s.Go("w", func(p *Proc) { cpu.Use(p, NewLabel("noop"), 0) })
	if end := s.Run(0); end != 0 {
		t.Fatalf("end = %v, want 0", end)
	}
}

func TestProfilerAccounting(t *testing.T) {
	pr := NewProfiler()
	pr.Add(NewLabel("a"), 2*time.Microsecond)
	pr.Add(NewLabel("a"), 3*time.Microsecond)
	pr.Add(NewLabel("b"), 10*time.Microsecond)
	if pr.Total("a") != 5*time.Microsecond || pr.Calls("a") != 2 {
		t.Fatalf("a: %v/%d", pr.Total("a"), pr.Calls("a"))
	}
	top := pr.Top(1)
	if len(top) != 1 || top[0].Label != "b" {
		t.Fatalf("top = %+v", top)
	}
	pr.Reset()
	if pr.Total("a") != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New(42)
		m := s.NewMutex("m")
		var stamps []Time
		for i := 0; i < 4; i++ {
			s.Go("p", func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(s.Rand().Intn(100)) * time.Microsecond)
					m.Lock(p, NewLabel("x"))
					p.Sleep(5 * time.Microsecond)
					m.Unlock(p)
					stamps = append(stamps, s.Now())
				}
			})
		}
		s.Run(0)
		return stamps
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: a CPU pool never runs more processes than it has
// processors, for random workloads.
func TestCPUPoolPropertyNeverOversubscribed(t *testing.T) {
	f := func(seed int64, capRaw uint8, nRaw uint8) bool {
		capacity := int(capRaw%4) + 1
		n := int(nRaw%20) + 1
		s := New(seed)
		cpus := s.NewCPUPool(capacity)
		inside, bad := 0, false
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			d := Time(rng.Intn(50)+1) * time.Microsecond
			s.Go("w", func(p *Proc) {
				cpus.acquire(p)
				inside++
				if inside > capacity {
					bad = true
				}
				p.Sleep(d)
				inside--
				cpus.release()
			})
		}
		s.Run(0)
		return !bad && s.Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMutexHeldByAndRelabel(t *testing.T) {
	s := New(1)
	m := s.NewMutex("m")
	s.Go("holder", func(p *Proc) {
		m.Lock(p, NewLabel("phase1"))
		if !m.HeldBy(p) {
			t.Error("HeldBy false for holder")
		}
		m.Relabel(p, NewLabel("phase2"))
		p.Sleep(10 * time.Microsecond)
		m.Unlock(p)
		if m.HeldBy(p) {
			t.Error("HeldBy true after unlock")
		}
	})
	s.Go("waiter", func(p *Proc) {
		p.Sleep(time.Microsecond)
		m.Lock(p, NewLabel("w"))
		m.Unlock(p)
	})
	s.Run(0)
	// The waiter's wait must be attributed to the relabeled section.
	if m.WaitBreakdown()["phase2"] == 0 {
		t.Fatalf("wait not attributed to relabeled section: %v", m.WaitBreakdown())
	}
	if m.WaitBreakdown()["phase1"] != 0 {
		t.Fatal("wait attributed to stale label")
	}
}

func TestMutexRelabelByNonHolderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := New(1)
	m := s.NewMutex("m")
	s.Go("a", func(p *Proc) { m.Relabel(p, NewLabel("x")) })
	s.Run(0)
}

func TestCPUJitterBounded(t *testing.T) {
	s := New(7)
	cpu := s.NewCPUPool(1)
	cpu.Jitter = 0.1
	var min, max Time
	s.Go("w", func(p *Proc) {
		for i := 0; i < 200; i++ {
			t0 := s.Now()
			cpu.Use(p, NewLabel("work"), 100*time.Microsecond)
			d := s.Now() - t0
			if min == 0 || d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
	})
	s.Run(0)
	if min < 90*time.Microsecond || max > 110*time.Microsecond {
		t.Fatalf("jitter out of bounds: [%v, %v]", min, max)
	}
	if min == max {
		t.Fatal("jitter had no effect")
	}
}

// An event, lane links included, fits in one 64-byte cache line.
func TestEventFitsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 64 {
		t.Fatalf("an event takes %d bytes", n)
	}
}
