package disksim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

func TestSequentialWriteNoSeek(t *testing.T) {
	s := sim.New(1)
	d := New(s, 10*time.Millisecond, 10_000_000) // 10 MB/s
	var elapsed sim.Time
	s.Go("w", func(p *sim.Proc) {
		p.Sleep(d.BookWrite(0, 1_000_000)) // first write seeks
		p.Sleep(d.BookWrite(1_000_000, 1_000_000))
		elapsed = s.Now()
	})
	s.Run(0)
	// 2 MB at 10 MB/s = 200ms + one initial seek of 10ms.
	want := 210 * time.Millisecond
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	if d.Seeks != 1 {
		t.Fatalf("seeks = %d, want 1", d.Seeks)
	}
}

func TestSequentialReadStreamsAfterOneSeek(t *testing.T) {
	s := sim.New(1)
	d := New(s, 10*time.Millisecond, 10_000_000)
	var elapsed sim.Time
	s.Go("r", func(p *sim.Proc) {
		p.Sleep(d.BookRead(0, 1_000_000)) // first read positions the head
		p.Sleep(d.BookRead(1_000_000, 1_000_000))
		elapsed = s.Now()
	})
	s.Run(0)
	want := 210 * time.Millisecond // 2 MB at 10 MB/s + one 10ms seek
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
	if d.Seeks != 1 || d.BytesRead != 2_000_000 || d.BytesWritten != 0 {
		t.Fatalf("seeks=%d read=%d written=%d", d.Seeks, d.BytesRead, d.BytesWritten)
	}
}

func TestReadsAndWritesShareTheHead(t *testing.T) {
	s := sim.New(1)
	d := New(s, 5*time.Millisecond, 10_000_000)
	s.Go("rw", func(p *sim.Proc) {
		p.Sleep(d.BookWrite(0, 4096))
		p.Sleep(d.BookRead(4096, 4096)) // sequential with the write: no seek
		p.Sleep(d.BookRead(1_000_000, 4096))
		p.Sleep(d.BookWrite(1_000_000+4096, 4096)) // sequential with the read
	})
	s.Run(0)
	if d.Seeks != 2 {
		t.Fatalf("seeks = %d, want 2 (initial position + the jump)", d.Seeks)
	}
	if d.BytesRead != 8192 || d.BytesWritten != 8192 {
		t.Fatalf("read=%d written=%d", d.BytesRead, d.BytesWritten)
	}
}

func TestRandomWriteSeeks(t *testing.T) {
	s := sim.New(1)
	d := New(s, 5*time.Millisecond, 10_000_000)
	s.Go("w", func(p *sim.Proc) {
		p.Sleep(d.BookWrite(0, 4096))
		p.Sleep(d.BookWrite(1_000_000, 4096)) // jump
		p.Sleep(d.BookWrite(0, 4096))         // jump back
	})
	s.Run(0)
	if d.Seeks != 3 {
		t.Fatalf("seeks = %d, want 3", d.Seeks)
	}
}

func TestFIFOQueueing(t *testing.T) {
	s := sim.New(1)
	d := New(s, 0, 1_000_000) // 1 MB/s, no seek
	var t1, t2 sim.Time
	s.Go("a", func(p *sim.Proc) {
		p.Sleep(d.BookWrite(0, 1_000_000))
		t1 = s.Now()
	})
	s.Go("b", func(p *sim.Proc) {
		p.Sleep(d.BookWrite(1_000_000, 1_000_000))
		t2 = s.Now()
	})
	s.Run(0)
	if t1 != time.Second || t2 != 2*time.Second {
		t.Fatalf("t1=%v t2=%v; want 1s and 2s", t1, t2)
	}
}

func TestBookWriteReturnsWait(t *testing.T) {
	s := sim.New(1)
	d := New(s, 0, 1_000_000)
	if wait := d.BookWrite(0, 500_000); wait != 500*time.Millisecond {
		t.Fatalf("first write waits %v, want 500ms", wait)
	}
	// A zero-size write queues behind the first and costs nothing.
	if wait := d.BookWrite(500_000, 0); wait != 500*time.Millisecond {
		t.Fatalf("zero-size write waits %v, want 500ms", wait)
	}
	if d.Requests != 2 || d.BytesWritten != 500_000 {
		t.Fatalf("%d requests, %d bytes", d.Requests, d.BytesWritten)
	}
}

func TestQueueDelay(t *testing.T) {
	s := sim.New(1)
	d := New(s, 0, 1_000_000)
	wait := d.BookWrite(0, 1_000_000)
	if d.QueueDelay() != time.Second {
		t.Fatalf("queue delay = %v", d.QueueDelay())
	}
	s.Go("w", func(p *sim.Proc) { p.Sleep(wait) })
	s.Run(0)
	if d.QueueDelay() != 0 {
		t.Fatalf("queue delay after drain = %v", d.QueueDelay())
	}
}

func TestStats(t *testing.T) {
	s := sim.New(1)
	d := New(s, 0, 1_000_000)
	d.BookWrite(0, 100)
	if d.BytesWritten != 100 || d.Requests != 1 {
		t.Fatalf("stats: %d bytes in %d requests", d.BytesWritten, d.Requests)
	}
	if d.Bandwidth() != 1_000_000 {
		t.Fatal("bandwidth accessor wrong")
	}
}

func TestRAID4Bandwidth(t *testing.T) {
	s := sim.New(1)
	r := NewRAID4(s, 8, 0, 5_000_000)
	if r.Bandwidth() != 40_000_000 {
		t.Fatalf("raid bandwidth = %d", r.Bandwidth())
	}
	if r.DataDisks() != 8 {
		t.Fatalf("data disks = %d", r.DataDisks())
	}
}

func TestPresets(t *testing.T) {
	s := sim.New(1)
	if NewDeskstarEIDE(s).Bandwidth() != 16_600_000 {
		t.Fatal("deskstar preset wrong")
	}
	if NewSeagateSCSI(s).Bandwidth() != 35_000_000 {
		t.Fatal("seagate preset wrong")
	}
	v := NewFilerVolume(s)
	if v.Bandwidth() != 48_000_000 {
		t.Fatalf("filer volume bandwidth = %d", v.Bandwidth())
	}
}

func TestBadArgsPanic(t *testing.T) {
	s := sim.New(1)
	for _, fn := range []func(){
		func() { New(s, 0, 0) },
		func() { NewRAID4(s, 0, 0, 1) },
		func() { New(s, 0, 1).BookWrite(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: busy time equals bytes/bandwidth plus seeks*seekTime, and the
// device never serves two requests at once (freeAt is monotone).
func TestAccountingProperty(t *testing.T) {
	f := func(sizes []uint16, gap uint8) bool {
		s := sim.New(1)
		seek := 3 * time.Millisecond
		d := New(s, seek, 8_000_000)
		var total int64
		off := int64(0)
		for i, sz := range sizes {
			n := int64(sz)
			if i%int(gap%3+1) == 0 {
				off += 1 << 20 // force a seek
			}
			d.BookWrite(off, n)
			off += n
			total += n
		}
		want := sim.Time(total*1e9/8_000_000) + time.Duration(d.Seeks)*seek
		return d.BusyTime == want && d.BytesWritten == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
