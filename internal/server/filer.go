package server

import (
	"repro/internal/disksim"
	"repro/internal/nfsproto"
	"repro/internal/rangeset"
	"repro/internal/sim"
)

// FilerConfig describes the F85 backend.
type FilerConfig struct {
	// NVRAMBytes is the write log capacity (64 MB on the F85, §3.1),
	// managed as two halves: one fills while the other drains to disk at a
	// consistency point, WAFL-style.
	NVRAMBytes int64
	// CPPause is how long the filer stops responding to writes when a
	// consistency point begins — the cause of the Figure 4 quiet gap and
	// of §3.5's "the filer briefly stops responding to network write
	// requests during a file system checkpoint".
	CPPause sim.Time
	// CPInterval forces a consistency point after this much time even if
	// the NVRAM half is not full (ONTAP checkpoints every ~10 s).
	CPInterval sim.Time
}

// DefaultFilerConfig returns the F85 parameters.
func DefaultFilerConfig() FilerConfig {
	return FilerConfig{
		NVRAMBytes: 64 << 20,
		CPPause:    60_000_000,     // 60 ms
		CPInterval: 10_000_000_000, // 10 s
	}
}

// Filer is the NetApp-style backend: writes land in NVRAM and are
// immediately stable (FILE_SYNC), so clients skip COMMIT; NVRAM drains to
// a RAID-4 volume in big sequential consistency points.
type Filer struct {
	s    *sim.Sim
	cfg  FilerConfig
	disk *disksim.RAID4

	halfCap    int64 // capacity of the filling half
	active     int64 // bytes logged in the filling half
	draining   bool  // the other half is being written to disk
	drainBytes int64 // bytes in the draining half, not yet confirmed on disk
	pauseUntil sim.Time
	spaceWait  *sim.WaitQueue
	diskOff    int64 // WAFL writes sequentially; next stripe offset
	verf       nfsproto.WriteVerf

	// gen is the lifecycle generation, bumped by Crash. Timer-CP closures
	// and disk completions capture it when scheduled and die quietly if the
	// filer has rebooted underneath them.
	gen int
	// cpLive counts scheduled-but-unfired timer-CP closures (test hook for
	// the one-live-timer invariant across restarts).
	cpLive int

	// stable is the per-file byte coverage that has reached NVRAM — on a
	// filer every acked write is immediately durable.
	stable map[nfsproto.FileHandle]*rangeset.Set

	// Checkpoints counts consistency points taken.
	Checkpoints int64
	// Stalls counts writes that blocked on a back-to-back checkpoint
	// (both NVRAM halves busy).
	Stalls int64
	// Crashes counts Crash calls; Replayed counts bytes recovered from the
	// NVRAM log at restart.
	Crashes  int64
	Replayed int64
}

// NewFiler creates the backend draining to the given RAID volume.
func NewFiler(s *sim.Sim, cfg FilerConfig, vol *disksim.RAID4) *Filer {
	if cfg.NVRAMBytes <= 0 {
		panic("server: filer needs NVRAM")
	}
	f := &Filer{
		s:         s,
		cfg:       cfg,
		disk:      vol,
		halfCap:   cfg.NVRAMBytes / 2,
		spaceWait: s.NewWaitQueue("filer-nvram"),
		verf:      0xf85f85f85,
		stable:    make(map[nfsproto.FileHandle]*rangeset.Set),
	}
	f.scheduleTimerCP()
	return f
}

// scheduleTimerCP arms the next timer-driven consistency point. The chain
// is tied to the filer's lifecycle generation: a closure armed before a
// crash fires once after it, sees the generation mismatch, and dies
// without rescheduling — so a restarted filer always ends up with exactly
// one live chain (the one Restart armed).
func (f *Filer) scheduleTimerCP() {
	if f.cfg.CPInterval <= 0 {
		return
	}
	gen := f.gen
	f.cpLive++
	f.s.After(f.cfg.CPInterval, func() {
		f.cpLive--
		if gen != f.gen {
			return
		}
		if f.active > 0 && !f.draining {
			f.startCP()
		}
		f.scheduleTimerCP()
	})
}

// startCP swaps NVRAM halves and begins draining the full one. The filer
// stops accepting writes for CPPause while the consistency point is set
// up.
func (f *Filer) startCP() {
	bytes := f.active
	f.active = 0
	f.draining = true
	f.drainBytes = bytes
	f.Checkpoints++
	f.pauseUntil = f.s.Now() + f.cfg.CPPause
	gen := f.gen
	f.disk.WriteAsync(f.diskOff, bytes, func() {
		if gen != f.gen {
			// The filer rebooted while this stripe was in flight; the
			// restart replay re-covers these bytes from the NVRAM log.
			return
		}
		f.draining = false
		f.drainBytes = 0
		f.spaceWait.Broadcast()
	})
	f.diskOff += bytes
}

// Crash models a filer panic/power cut. NVRAM is battery-backed, so the
// log contents (the filling half plus any half mid-drain whose completion
// we can no longer trust) survive and are replayed at Restart; nothing
// acked is ever lost. Pending timer chains and disk completions are
// orphaned via the generation bump.
func (f *Filer) Crash() {
	f.gen++
	f.Crashes++
	f.pauseUntil = 0
	// The in-flight CP's completion is orphaned; its bytes stay in
	// drainBytes for the restart replay. Clear draining so recovery does
	// not wait on a completion that will never be delivered.
	f.draining = false
	f.spaceWait.Broadcast()
}

// Restart brings the filer back: replay the NVRAM log as one recovery
// consistency point, bump the write verifier (RFC 1813 §3.3.7), and arm a
// fresh timer-CP chain.
func (f *Filer) Restart() {
	f.verf++
	if replay := f.active + f.drainBytes; replay > 0 {
		f.Replayed += replay
		f.active = 0
		f.draining = true
		f.drainBytes = replay
		f.Checkpoints++
		f.pauseUntil = f.s.Now() + f.cfg.CPPause
		gen := f.gen
		f.disk.WriteAsync(f.diskOff, replay, func() {
			if gen != f.gen {
				return
			}
			f.draining = false
			f.drainBytes = 0
			f.spaceWait.Broadcast()
		})
		f.diskOff += replay
	}
	f.scheduleTimerCP()
}

// HandleWrite implements Backend: log to NVRAM, reply FILE_SYNC.
func (f *Filer) HandleWrite(p *sim.Proc, args nfsproto.WriteArgs) nfsproto.WriteRes {
	n := int64(args.Count)
	for {
		// Stop responding while a consistency point starts.
		if wait := f.pauseUntil - f.s.Now(); wait > 0 {
			p.Sleep(wait)
			continue
		}
		if f.active+n <= f.halfCap {
			break
		}
		if !f.draining {
			f.startCP()
			continue
		}
		// Back-to-back checkpoint: the filling half is full and the other
		// half has not finished draining. The client sees this as the
		// server's sustained (disk-limited) ingest rate.
		f.Stalls++
		f.spaceWait.Wait(p)
	}
	f.active += n
	f.stableSet(args.File).Add(int64(args.Offset), int64(args.Offset)+n)
	return nfsproto.WriteRes{
		Status:    nfsproto.NFS3OK,
		Count:     args.Count,
		Committed: nfsproto.FileSync,
		Verf:      f.verf,
	}
}

// HandleRead implements Backend: a cold-file read served from the RAID-4
// volume. Consistency points pause only network *write* requests (§3.5),
// so reads proceed during a CP — but they share the volume's FIFO queue
// with the NVRAM drain, so a read issued mid-checkpoint waits behind the
// stripe writes.
func (f *Filer) HandleRead(p *sim.Proc, args nfsproto.ReadArgs) nfsproto.ReadRes {
	f.disk.Read(p, int64(args.Offset), int64(args.Count))
	return nfsproto.ReadRes{
		Status: nfsproto.NFS3OK,
		Count:  args.Count,
		Data:   nfsproto.Zeroes(int(args.Count)),
	}
}

// HandleCommit implements Backend: everything is already in NVRAM, so a
// COMMIT (clients rarely send one to a filer) completes immediately.
func (f *Filer) HandleCommit(p *sim.Proc, args nfsproto.CommitArgs) nfsproto.CommitRes {
	return nfsproto.CommitRes{Status: nfsproto.NFS3OK, Verf: f.verf}
}

// Disk returns the RAID-4 volume the NVRAM log drains to (chaos
// disk_degrade events slow it mid-run).
func (f *Filer) Disk() *disksim.RAID4 { return f.disk }

func (f *Filer) stableSet(fh nfsproto.FileHandle) *rangeset.Set {
	set, ok := f.stable[fh]
	if !ok {
		set = &rangeset.Set{}
		f.stable[fh] = set
	}
	return set
}

// StableCoverage implements DurabilityTracker: on a filer every acked
// byte is in battery-backed NVRAM, so acked coverage is stable coverage.
func (f *Filer) StableCoverage(fh nfsproto.FileHandle) *rangeset.Set {
	return f.stableSet(fh)
}

// LostBytes implements DurabilityTracker: NVRAM never loses acked data.
func (f *Filer) LostBytes() int64 { return 0 }

// ReplayedBytes implements DurabilityTracker.
func (f *Filer) ReplayedBytes() int64 { return f.Replayed }
