package vfs

import (
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/racebuild"
	"repro/internal/sim"
)

func TestSplitPagesAligned8K(t *testing.T) {
	spans := slices.Collect(splitPages(0, 8192))
	if len(spans) != 2 {
		t.Fatalf("8 KB write = %d spans, want 2 (\"two pages, thus two requests\")", len(spans))
	}
	for i, sp := range spans {
		if sp.Page != int64(i) || sp.Offset != 0 || sp.Count != PageSize {
			t.Fatalf("span %d = %+v", i, sp)
		}
	}
}

func TestSplitPagesUnaligned(t *testing.T) {
	// 8000 bytes starting at byte 1000: crosses three pages.
	spans := slices.Collect(splitPages(1000, 8000))
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[0].Offset != 1000 || spans[0].Count != 3096 {
		t.Fatalf("first span = %+v", spans[0])
	}
	if spans[1].Offset != 0 || spans[1].Count != PageSize {
		t.Fatalf("middle span = %+v", spans[1])
	}
	if spans[2].Count != 8000-3096-4096 {
		t.Fatalf("last span = %+v", spans[2])
	}
}

func TestSplitPagesEmpty(t *testing.T) {
	if slices.Collect(splitPages(0, 0)) != nil || slices.Collect(splitPages(100, -5)) != nil {
		t.Fatal("degenerate writes should produce no spans")
	}
}

// Property: spans exactly tile [off, off+n), in order, none crossing a
// page boundary.
func TestSplitPagesProperty(t *testing.T) {
	f := func(offRaw uint32, nRaw uint16) bool {
		off, n := int64(offRaw), int(nRaw)
		if n == 0 {
			return slices.Collect(splitPages(off, n)) == nil
		}
		spans := slices.Collect(splitPages(off, n))
		pos := off
		total := 0
		for _, sp := range spans {
			if sp.Page*PageSize+int64(sp.Offset) != pos {
				return false
			}
			if sp.Count <= 0 || sp.Offset+sp.Count > PageSize {
				return false
			}
			pos += int64(sp.Count)
			total += sp.Count
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteSyscallChargesCPUAndCommits(t *testing.T) {
	s := sim.New(1)
	cpu := s.NewCPUPool(1)
	var committed []PageSpan
	var elapsed sim.Time
	s.Go("w", func(p *sim.Proc) {
		WriteSyscall(p, cpu, 0, 8192, func(sp PageSpan) {
			committed = append(committed, sp)
		})
		elapsed = s.Now()
	})
	s.Run(time.Second)
	if len(committed) != 2 {
		t.Fatalf("committed %d pages", len(committed))
	}
	want := syscallEntry + 2*(perPageCopy+perPagePrepare)
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	if s.Profiler().Total("generic_file_write") == 0 {
		t.Fatal("generic_file_write not profiled")
	}
}

func TestReadSyscallChargesCPUAndFetches(t *testing.T) {
	s := sim.New(1)
	cpu := s.NewCPUPool(1)
	var fetched []PageSpan
	var elapsed sim.Time
	s.Go("r", func(p *sim.Proc) {
		ReadSyscall(p, cpu, 0, 8192, func(sp PageSpan) {
			fetched = append(fetched, sp)
		})
		elapsed = s.Now()
	})
	s.Run(time.Second)
	if len(fetched) != 2 {
		t.Fatalf("fetched %d pages", len(fetched))
	}
	// Reads copy to user space but skip the write path's prepare_write.
	want := syscallEntry + 2*perPageCopy
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	if s.Profiler().Total("generic_file_read") == 0 {
		t.Fatal("generic_file_read not profiled")
	}
}

func TestDefaultCostsCalibration(t *testing.T) {
	// ~42 µs per 8 KB write at the syscall layer -> ~195 MB/s peak local
	// memory write bandwidth, Figure 1's ext2 plateau.
	per8k := syscallEntry + 2*(perPageCopy+perPagePrepare)
	if per8k < 30*time.Microsecond || per8k > 60*time.Microsecond {
		t.Fatalf("8 KB syscall cost = %v, want 30-60µs", per8k)
	}
}

// A write and a read syscall walk their page spans without allocating:
// the span iterator builds no slice, so the only per-syscall work left is
// the CPU charges, which allocate nothing once the event pool has grown.
func TestSpanWalkAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("the race detector instruments coroutine switches")
	}
	s := sim.New(1)
	defer s.Close()
	cpu := s.NewCPUPool(1)
	start := s.NewWaitQueue()
	pages, bytes := 0, 0
	s.Go("rw", func(p *sim.Proc) {
		for {
			start.Wait(p)
			// 10000 bytes from byte 1000 cross three page boundaries.
			WriteSyscall(p, cpu, 1000, 10000, func(sp PageSpan) {
				pages++
				bytes += sp.Count
			})
			ReadSyscall(p, cpu, 1000, 10000, func(sp PageSpan) {
				pages++
				bytes += sp.Count
			})
		}
	})
	s.Run(s.Now() + time.Millisecond) // park the process
	step := func() {
		start.Signal()
		s.Run(s.Now() + time.Millisecond)
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("a write and a read syscall cost %.2f allocations", n)
	}
	// One warm-up step, then AllocsPerRun's own warm-up run and 100 more.
	if runs := 102; pages != runs*2*3 || bytes != runs*2*10000 {
		t.Fatalf("walked %d pages and %d bytes in %d runs", pages, bytes, runs)
	}
}
