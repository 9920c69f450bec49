package server

import (
	"time"

	"repro/internal/disksim"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// The F85's NVRAM log and consistency-point calibration.
const (
	// nvramBytes is the write log capacity (64 MB on the F85, §3.1),
	// managed as two halves: one fills while the other drains to disk at
	// a consistency point, WAFL-style.
	nvramBytes = 64 << 20
	nvramHalf  = nvramBytes / 2
	// cpPause (60 ms) is how long the filer stops responding to writes
	// when a consistency point begins: the cause of the Figure 4 quiet
	// gap and of §3.5's "the filer briefly stops responding to network
	// write requests during a file system checkpoint".
	cpPause sim.Time = 60 * time.Millisecond
	// cpInterval forces a consistency point after 10 s even if the NVRAM
	// half is not full, as ONTAP checkpoints.
	cpInterval sim.Time = 10 * time.Second
)

// Filer is the NetApp-style backend: writes land in NVRAM and are
// immediately stable (FILE_SYNC), so clients skip COMMIT; NVRAM drains to
// a RAID-4 volume in big sequential consistency points.
type Filer struct {
	s    *sim.Sim
	disk *disksim.RAID4

	// cpInterval and cpPause are the constants of the same names; the
	// package's tests shorten them.
	cpInterval, cpPause sim.Time

	active     int64 // bytes logged in the filling half
	draining   bool  // the other half is being written to disk
	drainBytes int64 // bytes in the draining half, not yet confirmed on disk
	pauseUntil sim.Time
	spaceWait  *sim.WaitQueue
	diskOff    int64 // WAFL writes sequentially; next stripe offset
	verf       nfsproto.WriteVerf

	// cpTimer is the armed timer-CP event and drainDone the in-flight
	// consistency point's disk completion; Crash cancels both. onCPTimer
	// and onDrained are timerCP and drained bound once, so neither
	// arming the timer nor starting a consistency point allocates.
	cpTimer, drainDone   sim.Event
	onCPTimer, onDrained func()

	// Checkpoints counts consistency points taken.
	Checkpoints int64
	// Crashes counts Crash calls; Replayed counts bytes recovered from the
	// NVRAM log at restart.
	Crashes  int64
	Replayed int64
}

// NewFiler creates the backend draining to the given RAID volume.
func NewFiler(s *sim.Sim, vol *disksim.RAID4) *Filer {
	f := &Filer{
		s:          s,
		disk:       vol,
		cpInterval: cpInterval,
		cpPause:    cpPause,
		spaceWait:  s.NewWaitQueue(),
		verf:       0xf85f85f85,
	}
	f.onCPTimer, f.onDrained = f.timerCP, f.drained
	f.scheduleTimerCP()
	return f
}

// scheduleTimerCP arms the next timer-driven consistency point. Crash
// cancels the armed one and Restart arms a fresh one, so the filer has at
// most one timer chain at any time.
func (f *Filer) scheduleTimerCP() {
	f.cpTimer = f.s.After(f.cpInterval, f.onCPTimer)
}

// timerCP drains the filling half if it holds anything and re-arms.
func (f *Filer) timerCP() {
	if f.active > 0 && !f.draining {
		f.drain(f.active)
	}
	f.scheduleTimerCP()
}

// drain starts a consistency point that writes bytes to disk: the
// filling half's contents when the halves swap, or the whole NVRAM log
// at restart. The filer stops accepting writes for cpPause while the
// consistency point is set up.
func (f *Filer) drain(bytes int64) {
	f.active = 0
	f.draining = true
	f.drainBytes = bytes
	f.Checkpoints++
	f.pauseUntil = f.s.Now() + f.cpPause
	f.drainDone = f.s.After(f.disk.BookWrite(f.diskOff, bytes), f.onDrained)
	f.diskOff += bytes
}

// drained completes the consistency point: the draining half is on disk
// and free for the next swap.
func (f *Filer) drained() {
	f.draining = false
	f.drainBytes = 0
	f.spaceWait.Broadcast()
}

// Crash models a filer panic/power cut. NVRAM is battery-backed, so the
// log contents (the filling half plus any half mid-drain whose completion
// we can no longer trust) survive and are replayed at Restart; nothing
// acked is ever lost. The timer chain and the in-flight consistency
// point's completion are canceled.
func (f *Filer) Crash() {
	f.cpTimer.Cancel()
	f.drainDone.Cancel()
	f.Crashes++
	f.pauseUntil = 0
	// The canceled CP's bytes stay in drainBytes for the restart replay.
	// Clear draining so recovery does not wait on a completion that will
	// never be delivered.
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
		f.drain(replay)
	}
	f.scheduleTimerCP()
}

// HandleWrite implements Backend: log to NVRAM, reply FILE_SYNC.
func (f *Filer) HandleWrite(p *sim.Proc, ino *Inode, args nfsproto.WriteArgs, retry func()) (nfsproto.WriteRes, bool) {
	n := int64(args.Count)
	for {
		// Stop responding while a consistency point starts.
		if wait := f.pauseUntil - f.s.Now(); wait > 0 {
			p.SleepThen(wait, retry)
			return nfsproto.WriteRes{}, false
		}
		if f.active+n <= nvramHalf {
			break
		}
		if !f.draining {
			f.drain(f.active)
			continue
		}
		// Back-to-back checkpoint: the filling half is full and the other
		// half has not finished draining. The client sees this as the
		// server's sustained (disk-limited) ingest rate.
		f.spaceWait.WaitThen(p, retry)
		return nfsproto.WriteRes{}, false
	}
	f.active += n
	ino.stable.Add(int64(args.Offset), int64(args.Offset)+n)
	return nfsproto.WriteRes{
		Status:    nfsproto.NFS3OK,
		Count:     args.Count,
		Committed: nfsproto.FileSync,
		Verf:      f.verf,
	}, true
}

// HandleRead implements Backend: a cold-file read served from the RAID-4
// volume. Consistency points pause only network *write* requests (§3.5),
// so reads proceed during a CP — but they share the volume's FIFO queue
// with the NVRAM drain, so a read issued mid-checkpoint waits behind the
// stripe writes.
func (f *Filer) HandleRead(args nfsproto.ReadArgs) (nfsproto.ReadRes, sim.Time) {
	wait := f.disk.BookRead(int64(args.Offset), int64(args.Count))
	return nfsproto.ReadRes{
		Status: nfsproto.NFS3OK,
		Count:  args.Count,
		Data:   xdr.Zeroes(int(args.Count)),
	}, wait
}

// HandleCommit implements Backend: everything is already in NVRAM, so a
// COMMIT (clients rarely send one to a filer) completes immediately.
func (f *Filer) HandleCommit(p *sim.Proc, args nfsproto.CommitArgs, retry func()) (nfsproto.CommitRes, bool) {
	return nfsproto.CommitRes{Status: nfsproto.NFS3OK, Verf: f.verf}, true
}

// SetDiskSlowFactor implements Backend: it slows the RAID-4 volume the
// NVRAM log drains to.
func (f *Filer) SetDiskSlowFactor(factor float64) { f.disk.SetSlowFactor(factor) }

// LostBytes implements Backend: NVRAM never loses acked data.
func (f *Filer) LostBytes() int64 { return 0 }

// ReplayedBytes implements Backend.
func (f *Filer) ReplayedBytes() int64 { return f.Replayed }
