package mm

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func TestChargeWithinBudget(t *testing.T) {
	s := sim.New(1)
	c := New(s, 1<<20)
	s.Go("w", func(p *sim.Proc) {
		c.ChargeDirty(p, 512<<10)
		if s.Now() != 0 {
			t.Error("charge within budget should not block")
		}
	})
	s.Run(time.Second)
	if c.Dirty() != 512<<10 || c.Usage() != 512<<10 {
		t.Fatalf("dirty=%d usage=%d", c.Dirty(), c.Usage())
	}
	if c.ThrottleEvents != 0 {
		t.Fatal("throttled within budget")
	}
}

func TestThrottleAndRelease(t *testing.T) {
	s := sim.New(1)
	c := New(s, 1000)
	var wokenAt sim.Time
	s.Go("writer", func(p *sim.Proc) {
		c.ChargeDirty(p, 800)
		c.ChargeDirty(p, 800) // over budget: blocks
		wokenAt = s.Now()
	})
	s.Go("flusher", func(p *sim.Proc) {
		p.Sleep(5 * time.Millisecond)
		c.StartWriteback(800)
		p.Sleep(5 * time.Millisecond)
		c.EndWriteback(800)
	})
	s.Run(time.Second)
	if wokenAt != 10*time.Millisecond {
		t.Fatalf("writer woke at %v, want 10ms", wokenAt)
	}
	if c.ThrottleEvents != 1 || c.ThrottledTime != 10*time.Millisecond {
		t.Fatalf("throttle stats: %d events, %v", c.ThrottleEvents, c.ThrottledTime)
	}
	if c.Dirty() != 800 || c.Writeback() != 0 {
		t.Fatalf("dirty=%d wb=%d", c.Dirty(), c.Writeback())
	}
}

func TestWritebackAccounting(t *testing.T) {
	s := sim.New(1)
	c := New(s, 1<<20)
	s.Go("w", func(p *sim.Proc) {
		c.ChargeDirty(p, 1000)
		c.StartWriteback(400)
		if c.Dirty() != 600 || c.Writeback() != 400 || c.Usage() != 1000 {
			t.Errorf("after start: dirty=%d wb=%d", c.Dirty(), c.Writeback())
		}
		c.EndWriteback(400)
		if c.Usage() != 600 {
			t.Errorf("after end: usage=%d", c.Usage())
		}
	})
	s.Run(time.Second)
	if c.PeakUsage != 1000 {
		t.Fatalf("peak = %d", c.PeakUsage)
	}
}

func TestPanics(t *testing.T) {
	s := sim.New(1)
	for i, fn := range []func(){
		func() { New(s, 0) },
		func() { New(s, 10).StartWriteback(5) },
		func() { New(s, 10).EndWriteback(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
	// Negative charge panics inside a proc.
	c := New(s, 10)
	s.Go("w", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative charge did not panic")
			}
			// Swallow so the sim does not propagate it.
		}()
		c.ChargeDirty(p, -1)
	})
	s.Run(time.Second)
}

func TestNoteReadAccounting(t *testing.T) {
	s := sim.New(1)
	c := New(s, 1<<20)
	for _, tc := range []struct {
		hits, misses int
	}{
		{0, 0}, {3, 0}, {3, 2}, {10, 7},
	} {
		c.ReadHits, c.ReadMisses = 0, 0
		for i := 0; i < tc.hits; i++ {
			c.NoteRead(true)
		}
		for i := 0; i < tc.misses; i++ {
			c.NoteRead(false)
		}
		if c.ReadHits != int64(tc.hits) || c.ReadMisses != int64(tc.misses) {
			t.Fatalf("hits/misses = %d/%d, want %d/%d",
				c.ReadHits, c.ReadMisses, tc.hits, tc.misses)
		}
	}
	// Read accounting never touches the dirty budget.
	if c.Usage() != 0 {
		t.Fatalf("usage = %d after read accounting", c.Usage())
	}
}

func TestReadaheadWindow(t *testing.T) {
	for _, tc := range []struct {
		name     string
		min, max int
		accesses []int64
		want     []int // Access return per access
	}{
		{
			// A fresh stream starts at Min and doubles per sequential
			// access until capped at Max.
			name: "sequential grows and caps",
			min:  2, max: 16,
			accesses: []int64{0, 1, 2, 3, 4, 5},
			want:     []int{2, 4, 8, 16, 16, 16},
		},
		{
			// A seek (non-sequential access) resets the window to Min.
			name: "seek resets",
			min:  2, max: 16,
			accesses: []int64{0, 1, 2, 100, 101, 102},
			want:     []int{2, 4, 8, 2, 4, 8},
		},
		{
			// Re-reading the same page is a seek too (next expected was
			// pg+1).
			name: "re-read resets",
			min:  4, max: 8,
			accesses: []int64{0, 1, 1, 2},
			want:     []int{4, 8, 4, 8},
		},
		{
			// Max <= 0 disables readahead entirely.
			name: "disabled",
			min:  2, max: 0,
			accesses: []int64{0, 1, 2, 3},
			want:     []int{0, 0, 0, 0},
		},
		{
			// Min above Max still respects the cap.
			name: "min clamped to max",
			min:  32, max: 8,
			accesses: []int64{0, 1},
			want:     []int{8, 8},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ra := Readahead{Min: tc.min, Max: tc.max}
			for i, pg := range tc.accesses {
				if got := ra.Access(pg); got != tc.want[i] {
					t.Fatalf("access %d (page %d): window %d, want %d",
						i, pg, got, tc.want[i])
				}
				if ra.Window() != tc.want[i] {
					t.Fatalf("access %d: Window() %d, want %d", i, ra.Window(), tc.want[i])
				}
			}
		})
	}
}

// Property: usage never exceeds the limit no matter how writers and
// flushers interleave, as long as individual charges fit the budget.
func TestBudgetInvariantProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%20) + 2
		s := sim.New(seed)
		rng := rand.New(rand.NewSource(seed))
		limit := int64(8 << 10)
		c := New(s, limit)
		ok := true
		finished := 0
		for i := 0; i < n; i++ {
			s.Go("w", func(p *sim.Proc) {
				defer func() { finished++ }()
				for j := 0; j < 4; j++ {
					c.ChargeDirty(p, 1<<10)
					if c.Usage() > limit {
						ok = false
					}
					p.Sleep(sim.Time(rng.Intn(1000)) * time.Microsecond)
					c.StartWriteback(1 << 10)
					p.Sleep(100 * time.Microsecond)
					c.EndWriteback(1 << 10)
				}
			})
		}
		s.Run(time.Minute)
		return ok && c.Usage() == 0 && finished == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
