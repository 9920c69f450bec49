package server

import (
	"strings"
	"testing"
	"time"

	"repro/internal/nfsproto"
	"repro/internal/rpcsim"
	"repro/internal/sim"
)

// newTimerFiler returns a filer that takes a timer consistency point
// every 100 ms, with a pause short enough that a writer logging 8 KiB
// every 10 ms has bytes in NVRAM at each tick.
func newTimerFiler(s *sim.Sim) *Filer {
	f := NewFiler(s, newTestVolume(s))
	f.setCPTiming(100*time.Millisecond, time.Millisecond)
	return f
}

// logEvery10ms logs 8 KiB to the filer every 10 ms until stop.
func logEvery10ms(s *sim.Sim, f *Filer, stop sim.Time) {
	ino := &Inode{fh: nfsproto.MakeFileHandle(2, 2)}
	runSteps(s, func(i int) step {
		if i%2 == 1 {
			return sleepStep(10 * time.Millisecond)
		}
		if s.Now() >= stop {
			return nil
		}
		return writeStep(f, ino, nfsproto.WriteArgs{Offset: uint64(i/2) * 8192, Count: 8192}, nil)
	})
}

// Across crash/restart cycles the filer keeps exactly one timer-CP chain:
// with bytes in NVRAM at every tick, it takes one checkpoint per interval
// after the last restart. A chain left running by a crash would tick at
// its own phase and double (here, quadruple) the count.
func TestFilerRestartSingleLiveCPTimer(t *testing.T) {
	s := sim.New(1)
	f := newTimerFiler(s)
	logEvery10ms(s, f, time.Second)
	for _, at := range []sim.Time{35 * time.Millisecond, 255 * time.Millisecond, 475 * time.Millisecond} {
		s.At(at, func() {
			f.Crash()
			f.Restart()
		})
	}
	// The last restart's chain ticks at 575, 675, ..., 975 ms.
	s.Run(500 * time.Millisecond)
	before := f.Checkpoints
	s.Run(time.Second)
	if n := f.Checkpoints - before; n != 5 {
		t.Fatalf("%d checkpoints in the 5 intervals after the last restart, want 5 (one timer chain)", n)
	}
}

// A crashed filer that never restarts takes no timer checkpoint, though
// its NVRAM still holds the bytes logged before the crash.
func TestFilerCrashOrphansTimerChain(t *testing.T) {
	s := sim.New(1)
	f := newTimerFiler(s)
	logEvery10ms(s, f, 30*time.Millisecond)
	s.At(35*time.Millisecond, f.Crash)
	s.Run(time.Second)
	if f.NVRAMActive() == 0 {
		t.Fatal("nothing logged before the crash")
	}
	if f.Checkpoints != 0 {
		t.Fatalf("%d checkpoints after an unrecovered crash, want 0", f.Checkpoints)
	}
}

// The filer's NVRAM is battery-backed: everything acked before the crash
// is replayed at restart and nothing is ever lost.
func TestFilerCrashReplaysNVRAM(t *testing.T) {
	s := sim.New(1)
	f := NewFiler(s, newTestVolume(s))
	ino := &Inode{fh: nfsproto.MakeFileHandle(3, 3)}
	const total = 1 << 20
	runSteps(s, func(i int) step {
		if off := int64(i) * 8192; off < total {
			return writeStep(f, ino, nfsproto.WriteArgs{Offset: uint64(off), Count: 8192}, nil)
		}
		if i == total/8192 {
			return doStep(func() {
				f.Crash()
				f.Restart()
			})
		}
		return nil
	})
	s.Run(time.Minute)
	if f.Replayed != total {
		t.Fatalf("replayed = %d, want %d (the whole NVRAM log)", f.Replayed, total)
	}
	if f.LostBytes() != 0 {
		t.Fatalf("filer lost %d bytes; NVRAM must never lose acked data", f.LostBytes())
	}
	if cov := ino.Stable(); cov.Total() != total || !cov.Contains(0, total) {
		t.Fatalf("stable coverage = %v, want [0,%d)", cov, total)
	}
	if f.NVRAMActive() != 0 {
		t.Fatalf("NVRAM active = %d after replay drained", f.NVRAMActive())
	}
	if f.Crashes != 1 {
		t.Fatalf("crashes = %d", f.Crashes)
	}
}

// knfsd's page cache is volatile: acked UNSTABLE bytes that have not been
// written back die with the crash, and the restart changes the write
// verifier so clients can detect it.
func TestLinuxCrashLosesDirtyAndBumpsVerf(t *testing.T) {
	s := sim.New(1)
	l := NewLinuxServer(s, newTestDisk(s))
	l.dirtyLimit, l.drainChunk = 2<<20, 256<<10
	ino := &Inode{fh: nfsproto.MakeFileHandle(4, 4)}
	const total = 512 << 10
	var before, after nfsproto.WriteRes
	runSteps(s, func(i int) step {
		const n = total / 8192
		switch {
		case i < n:
			return writeStep(l, ino, nfsproto.WriteArgs{
				Offset: uint64(i) * 8192, Count: 8192, Stable: nfsproto.Unstable}, &before)
		case i == n:
			// All writes land at one instant; the writeback daemon has
			// not had the CPU yet, so the whole file is dirty when the
			// power goes out.
			return doStep(func() {
				l.Crash()
				l.Restart()
			})
		case i == n+1:
			return writeStep(l, ino, nfsproto.WriteArgs{
				Offset: 0, Count: 8192, Stable: nfsproto.Unstable}, &after)
		}
		return nil
	})
	s.Run(time.Minute)
	if l.Lost != total {
		t.Fatalf("lost = %d, want %d (everything dirty at the crash)", l.Lost, total)
	}
	if l.LostBytes() != l.Lost {
		t.Fatalf("LostBytes() = %d != Lost %d", l.LostBytes(), l.Lost)
	}
	if after.Verf == before.Verf {
		t.Fatal("restart did not change the write verifier")
	}
	// Only the post-restart write should have reached stable storage.
	if !ino.Stable().Contains(0, 8192) {
		t.Fatalf("post-restart write not stable: %v", ino.Stable())
	}
	if got := ino.Stable().Total(); got != 8192 {
		t.Fatalf("stable bytes = %d, want 8192 (pre-crash dirty data is gone)", got)
	}
	if l.Dirty() != 0 {
		t.Fatalf("dirty = %d after final drain", l.Dirty())
	}
}

// The server front end drops requests while down and the client's
// retransmissions complete the call once the server is back.
func TestServerFrontEndDropsWhileDownThenRecovers(t *testing.T) {
	r, _ := newRig(t, "filer")
	fh := nfsproto.MakeFileHandle(5, 5)
	r.srv.Crash()
	if !r.srv.Down() {
		t.Fatal("server not down after Crash")
	}
	r.s.At(3*time.Second, func() { r.srv.Restart() })
	done := false
	r.s.Go("w", func(p *sim.Proc) {
		args := nfsproto.WriteArgs{File: fh, Count: 8192, Stable: nfsproto.Unstable,
			Data: make([]byte, 8192)}
		rpcsim.CallSync(r.tr, p, nfsproto.ProcWrite, args.Encode, nfsproto.DecodeWriteRes)
		done = true
	})
	r.s.Run(time.Minute)
	if !done {
		t.Fatal("write never completed after the server came back")
	}
	if r.srv.Crashes != 1 {
		t.Fatalf("crashes = %d", r.srv.Crashes)
	}
	if r.srv.DroppedWhileDown == 0 {
		t.Fatal("no requests counted as dropped while the server was down")
	}
	if got := r.srv.ns.record(fh).Received().Total(); got != 8192 {
		t.Fatalf("coverage = %d bytes, want 8192", got)
	}
}

// Crash on an already-down server (and Restart on an up one) are scenario
// bugs and must panic loudly rather than corrupt lifecycle state.
func TestServerCrashRestartStatePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), name) {
				t.Fatalf("%s: panic = %v", name, r)
			}
		}()
		fn()
	}
	r, _ := newRig(t, "filer")
	mustPanic("restart", func() { r.srv.Restart() })
	r.srv.Crash()
	mustPanic("crash", func() { r.srv.Crash() })
}
