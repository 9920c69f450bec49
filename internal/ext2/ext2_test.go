package ext2

import (
	"testing"
	"time"

	"repro/internal/disksim"
	"repro/internal/mm"
	"repro/internal/sim"
)

func newRig(seed int64, cacheLimit int64) (*sim.Sim, *File, *mm.PageCache) {
	s := sim.New(seed)
	cpu := s.NewCPUPool(2)
	cache := mm.New(s, cacheLimit)
	disk := disksim.NewDeskstarEIDE(s)
	return s, NewFile(s, cpu, cache, disk), cache
}

func TestMemorySpeedWrites(t *testing.T) {
	s, f, _ := newRig(1, 64<<20)
	var elapsed sim.Time
	s.Go("w", func(p *sim.Proc) {
		for i := 0; i < 1024; i++ { // 8 MB, well within cache
			f.Write(p, 8192)
		}
		elapsed = s.Now()
	})
	s.Run(time.Minute)
	mbps := float64(8<<20) / 1e6 / elapsed.Seconds()
	// Figure 1's local plateau is ~170-200 MB/s.
	if mbps < 150 || mbps > 260 {
		t.Fatalf("local memory write = %.1f MB/s, want ~150-260", mbps)
	}
	if f.Size() != 8<<20 {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestCloseDoesNotFlush(t *testing.T) {
	s, f, cache := newRig(1, 64<<20)
	s.Go("w", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			f.Write(p, 8192)
		}
		f.Close(p)
	})
	s.Run(time.Second)
	// "dirty data remains in the system's data cache after the final
	// close() operation" (§2.3). 128 KB < flushChunk, so writeback never
	// even started.
	if cache.Usage() == 0 && f.Dirty() == 0 {
		t.Fatal("close flushed the page cache; ext2 must not")
	}
}

func TestFlushDrainsEverything(t *testing.T) {
	s, f, cache := newRig(1, 64<<20)
	var after int64 = -1
	s.Go("w", func(p *sim.Proc) {
		for i := 0; i < 512; i++ { // 4 MB
			f.Write(p, 8192)
		}
		f.Flush(p)
		after = cache.Usage()
	})
	s.Run(time.Minute)
	if after != 0 {
		t.Fatalf("cache usage after fsync = %d", after)
	}
	if f.Dirty() != 0 {
		t.Fatalf("file dirty after fsync = %d", f.Dirty())
	}
}

func TestThrottledAtCacheLimit(t *testing.T) {
	s, f, cache := newRig(1, 4<<20)
	var elapsed sim.Time
	s.Go("w", func(p *sim.Proc) {
		for i := 0; i < 2048; i++ { // 16 MB into a 4 MB budget
			f.Write(p, 8192)
		}
		elapsed = s.Now()
	})
	s.Run(10 * time.Minute)
	if cache.ThrottleEvents == 0 {
		t.Fatal("writer never throttled")
	}
	// Disk-bound at ~16.6 MB/s: 16 MB takes ~1 s; memory speed would be
	// ~80 ms.
	if elapsed < 500*time.Millisecond {
		t.Fatalf("elapsed %v too fast for a disk-bound run", elapsed)
	}
}

func TestWriteAfterClosePanics(t *testing.T) {
	s, f, _ := newRig(1, 4<<20)
	panicked := false
	s.Go("w", func(p *sim.Proc) {
		f.Close(p)
		defer func() { panicked = recover() != nil }()
		f.Write(p, 10)
	})
	s.Run(time.Second)
	if !panicked {
		t.Fatal("no panic on write after close")
	}
}

// A cold OpenExisting file must pull reads from the local disk, while a
// re-read and a read-back of written bytes hit the cache.
func TestColdReadsHitDiskThenCache(t *testing.T) {
	s := sim.New(1)
	cpu := s.NewCPUPool(2)
	cache := mm.New(s, 64<<20)
	disk := disksim.NewDeskstarEIDE(s)
	const size = 1 << 20
	f := OpenExisting(s, cpu, cache, disk, size)
	s.Go("r", func(p *sim.Proc) {
		var total int
		for {
			got := f.Read(p, 8192)
			if got == 0 {
				break
			}
			total += got
		}
		if total != size {
			t.Errorf("read %d bytes, want %d", total, size)
		}
		if disk.BytesRead != size {
			t.Errorf("disk read %d bytes, want %d", disk.BytesRead, size)
		}
		if cache.ReadMisses == 0 {
			t.Error("cold reads recorded no misses")
		}
		// Second pass: everything resident, no further disk traffic.
		f.readPos = 0
		misses := cache.ReadMisses
		for f.Read(p, 8192) > 0 {
		}
		if disk.BytesRead != size || cache.ReadMisses != misses {
			t.Errorf("re-read went to disk: bytes=%d misses=%d", disk.BytesRead, cache.ReadMisses-misses)
		}
	})
	s.Run(time.Minute)
}

// Appending to a cold existing file must not mark its unread prefix
// resident: only the written pages skip the disk.
func TestAppendDoesNotMarkColdPrefixResident(t *testing.T) {
	s := sim.New(1)
	cpu := s.NewCPUPool(2)
	cache := mm.New(s, 64<<20)
	disk := disksim.NewDeskstarEIDE(s)
	const size = 1 << 20
	f := OpenExisting(s, cpu, cache, disk, size)
	s.Go("rw", func(p *sim.Proc) {
		f.Write(p, 8192) // append at offset size
		if f.Size() != size+8192 {
			t.Errorf("size = %d", f.Size())
		}
		// The cold prefix still reads from disk...
		if f.Read(p, 8192) != 8192 {
			t.Error("prefix read failed")
		}
		if disk.BytesRead == 0 || cache.ReadMisses == 0 {
			t.Errorf("cold prefix served from nowhere: diskRead=%d misses=%d",
				disk.BytesRead, cache.ReadMisses)
		}
		// ...while the appended bytes are resident.
		before := disk.BytesRead
		f.readPos = size
		if f.Read(p, 8192) != 8192 {
			t.Error("append read failed")
		}
		if disk.BytesRead != before {
			t.Errorf("reading back the append went to disk (%d bytes)", disk.BytesRead-before)
		}
	})
	s.Run(time.Minute)
}
