package server

import (
	"strings"
	"testing"
	"time"

	"repro/internal/nfsproto"
	"repro/internal/rpcsim"
	"repro/internal/sim"
)

// A restarted filer must end up with exactly one live timer-CP chain: the
// chain armed before the crash fires once, sees the stale generation, and
// dies without rescheduling. (This pins the fix for the uncancellable
// scheduleTimerCP chain — before it, every crash/restart cycle leaked a
// whole extra chain firing checkpoints forever.)
func TestFilerRestartSingleLiveCPTimer(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultFilerConfig()
	cfg.CPInterval = 100 * time.Millisecond
	f := NewFiler(s, cfg, newTestVolume(s))
	s.Go("w", func(p *sim.Proc) {
		f.HandleWrite(p, nfsproto.WriteArgs{Count: 8192})
		p.Sleep(30 * time.Millisecond)
		f.Crash()
		f.Restart()
	})
	// Run long enough for the orphaned pre-crash chain to fire and die and
	// for the fresh chain to reschedule several times.
	s.Run(time.Second)
	if n := f.LiveCPTimers(); n != 1 {
		t.Fatalf("live CP timers after crash+restart = %d, want exactly 1", n)
	}
}

// A crashed filer that never restarts must wind down to zero live timers.
func TestFilerCrashOrphansTimerChain(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultFilerConfig()
	cfg.CPInterval = 100 * time.Millisecond
	f := NewFiler(s, cfg, newTestVolume(s))
	s.Go("w", func(p *sim.Proc) {
		p.Sleep(30 * time.Millisecond)
		f.Crash()
	})
	s.Run(time.Second)
	if n := f.LiveCPTimers(); n != 0 {
		t.Fatalf("live CP timers after unrecovered crash = %d, want 0", n)
	}
}

// The filer's NVRAM is battery-backed: everything acked before the crash
// is replayed at restart and nothing is ever lost.
func TestFilerCrashReplaysNVRAM(t *testing.T) {
	s := sim.New(1)
	f := NewFiler(s, DefaultFilerConfig(), newTestVolume(s))
	fh := nfsproto.MakeFileHandle(3, 3)
	const total = 1 << 20
	s.Go("w", func(p *sim.Proc) {
		for off := int64(0); off < total; off += 8192 {
			f.HandleWrite(p, nfsproto.WriteArgs{File: fh, Offset: uint64(off), Count: 8192})
		}
		f.Crash()
		f.Restart()
	})
	s.Run(time.Minute)
	if f.Replayed != total {
		t.Fatalf("replayed = %d, want %d (the whole NVRAM log)", f.Replayed, total)
	}
	if f.LostBytes() != 0 {
		t.Fatalf("filer lost %d bytes; NVRAM must never lose acked data", f.LostBytes())
	}
	if cov := f.StableCoverage(fh); cov.Total() != total || !cov.Contains(0, total) {
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
	cfg := LinuxConfig{RAMBytes: 4 << 20, DirtyLimit: 2 << 20, DrainChunk: 256 << 10}
	l := NewLinuxServer(s, cfg, newTestDisk(s))
	fh := nfsproto.MakeFileHandle(4, 4)
	const total = 512 << 10
	var verfBefore, verfAfter nfsproto.WriteVerf
	s.Go("w", func(p *sim.Proc) {
		for off := int64(0); off < total; off += 8192 {
			res := l.HandleWrite(p, nfsproto.WriteArgs{
				File: fh, Offset: uint64(off), Count: 8192, Stable: nfsproto.Unstable})
			verfBefore = res.Verf
		}
		// All writes land at one instant; the writeback daemon has not had
		// the CPU yet, so the whole file is dirty when the power goes out.
		l.Crash()
		l.Restart()
		res := l.HandleWrite(p, nfsproto.WriteArgs{
			File: fh, Offset: 0, Count: 8192, Stable: nfsproto.Unstable})
		verfAfter = res.Verf
	})
	s.Run(time.Minute)
	if l.Lost != total {
		t.Fatalf("lost = %d, want %d (everything dirty at the crash)", l.Lost, total)
	}
	if l.LostBytes() != l.Lost {
		t.Fatalf("LostBytes() = %d != Lost %d", l.LostBytes(), l.Lost)
	}
	if verfAfter == verfBefore {
		t.Fatal("restart did not change the write verifier")
	}
	// Only the post-restart write should have reached stable storage.
	if !l.StableCoverage(fh).Contains(0, 8192) {
		t.Fatalf("post-restart write not stable: %v", l.StableCoverage(fh))
	}
	if got := l.StableCoverage(fh).Total(); got != 8192 {
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
	if got := r.srv.Coverage(fh).Total(); got != 8192 {
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
