package server

import (
	"repro/internal/disksim"
	"repro/internal/fifo"
	"repro/internal/nfsproto"
	"repro/internal/rangeset"
	"repro/internal/sim"
)

// LinuxConfig describes the four-way Linux 2.4.4 knfsd backend.
type LinuxConfig struct {
	// RAMBytes is server memory (512 MB in §3.1).
	RAMBytes int64
	// DirtyLimit is how much unstable write data the page cache will hold
	// before the server throttles incoming writes behind the disk
	// (bdflush-style, ~40% of RAM).
	DirtyLimit int64
	// DrainChunk is the writeback granularity.
	DrainChunk int64
}

// DefaultLinuxConfig returns the paper's Linux server parameters.
func DefaultLinuxConfig() LinuxConfig {
	return LinuxConfig{
		RAMBytes:   512 << 20,
		DirtyLimit: 200 << 20,
		DrainChunk: 1 << 20,
	}
}

// LinuxServer is the knfsd backend: UNSTABLE writes land in the page
// cache and a writeback process drains them to a single SCSI disk; COMMIT
// blocks until the dirty data it covers is on disk. This is the durability
// contract the client pays for at close() — the filer never makes it wait.
type LinuxServer struct {
	s    *sim.Sim
	cfg  LinuxConfig
	disk *disksim.Disk

	dirty     int64
	diskOff   int64
	drainWork *sim.WaitQueue // wakes the writeback process
	dirtyWait *sim.WaitQueue // writers throttled on DirtyLimit
	cleanWait *sim.WaitQueue // COMMIT waiters
	verf      nfsproto.WriteVerf

	// gen is the lifecycle generation, bumped by Crash; the writeback
	// process captures it around each disk write so a chunk that was in
	// flight when the cache was discarded is not retired against the new
	// instance's accounting.
	gen int
	// queue is the FIFO of acked-but-unstable page-cache ranges awaiting
	// writeback; its byte total always equals dirty. A crash discards it —
	// that is exactly the data knfsd loses.
	queue fifo.Queue[unstableEntry]
	// stable is the per-file byte coverage confirmed on disk.
	stable map[nfsproto.FileHandle]*rangeset.Set

	// Throttled counts writes that blocked on the dirty limit.
	Throttled int64
	// Flushed counts bytes written back to disk.
	Flushed int64
	// Crashes counts Crash calls; Lost counts bytes of acked UNSTABLE data
	// dropped by crashes (the client must detect the verifier change and
	// rewrite them).
	Crashes int64
	Lost    int64
}

// unstableEntry is one acked write sitting dirty in the page cache.
type unstableEntry struct {
	fh  nfsproto.FileHandle
	off int64
	n   int64
}

// NewLinuxServer creates the backend draining to the given disk and
// starts its writeback process.
func NewLinuxServer(s *sim.Sim, cfg LinuxConfig, disk *disksim.Disk) *LinuxServer {
	if cfg.DirtyLimit <= 0 || cfg.DrainChunk <= 0 {
		panic("server: bad linux config")
	}
	l := &LinuxServer{
		s:         s,
		cfg:       cfg,
		disk:      disk,
		drainWork: s.NewWaitQueue("knfsd-drain"),
		dirtyWait: s.NewWaitQueue("knfsd-dirty"),
		cleanWait: s.NewWaitQueue("knfsd-clean"),
		verf:      0x11c4411c44,
		stable:    make(map[nfsproto.FileHandle]*rangeset.Set),
	}
	s.Go("kupdate/knfsd", l.writeback)
	return l
}

// writeback is the server-side flush daemon: whenever dirty data exists,
// write it to disk in DrainChunk units and wake throttled writers and
// COMMIT waiters.
func (l *LinuxServer) writeback(p *sim.Proc) {
	for {
		for l.dirty == 0 {
			l.drainWork.Wait(p)
		}
		chunk := l.cfg.DrainChunk
		if l.dirty < chunk {
			chunk = l.dirty
		}
		gen := l.gen
		l.disk.Write(p, l.diskOff, chunk)
		if gen != l.gen {
			// The server rebooted while this chunk was at the disk; the
			// crash already discarded the cache it was drawn from.
			continue
		}
		l.diskOff += chunk
		l.dirty -= chunk
		l.Flushed += chunk
		l.markStable(chunk)
		l.dirtyWait.Broadcast()
		if l.dirty == 0 {
			l.cleanWait.Broadcast()
		}
	}
}

// markStable retires n bytes from the front of the unstable FIFO into the
// per-file stable coverage, splitting the front entry when a writeback
// chunk ends inside it.
func (l *LinuxServer) markStable(n int64) {
	for n > 0 && l.queue.Len() > 0 {
		e := &l.queue.Items()[0]
		take := e.n
		if take > n {
			take = n
		}
		l.stableSet(e.fh).Add(e.off, e.off+take)
		e.off += take
		e.n -= take
		n -= take
		if e.n == 0 {
			l.queue.Drop(1)
		}
	}
}

// Crash models a server panic/power cut: the page cache — every acked
// UNSTABLE write not yet written back — is gone. The client discovers
// this through the changed write verifier and must rewrite the lost
// ranges (RFC 1813 §3.3.7).
func (l *LinuxServer) Crash() {
	l.gen++
	l.Crashes++
	for _, e := range l.queue.Items() {
		l.Lost += e.n
	}
	l.queue.Reset()
	l.dirty = 0
	l.dirtyWait.Broadcast()
	l.cleanWait.Broadcast()
}

// Restart brings knfsd back with a new write verifier; there is no log to
// replay.
func (l *LinuxServer) Restart() {
	l.verf++
}

// HandleWrite implements Backend.
func (l *LinuxServer) HandleWrite(p *sim.Proc, args nfsproto.WriteArgs) nfsproto.WriteRes {
	n := int64(args.Count)
	for l.dirty+n > l.cfg.DirtyLimit {
		l.Throttled++
		l.drainWork.Signal()
		l.dirtyWait.Wait(p)
	}
	l.dirty += n
	l.queue.Push(unstableEntry{fh: args.File, off: int64(args.Offset), n: n})
	l.drainWork.Signal()

	committed := nfsproto.Unstable
	if args.Stable != nfsproto.Unstable {
		// Synchronous write: wait until the page cache is clean again.
		// (Coarse — real knfsd waits for just this range — but our client
		// only uses stable writes in targeted tests.)
		for l.dirty > 0 {
			l.cleanWait.Wait(p)
		}
		committed = nfsproto.FileSync
	}
	return nfsproto.WriteRes{
		Status:    nfsproto.NFS3OK,
		Count:     args.Count,
		Committed: committed,
		Verf:      l.verf,
	}
}

// HandleRead implements Backend: a cold-file read served from the SCSI
// disk at the file's byte offset. Sequential client READs arrive as
// sequential disk reads and stream at media rate after one positioning
// cost; a read interleaved with the writeback drain (or a client seek)
// repositions the head. The returned data is Count zero bytes — content
// is not modeled, but the reply's wire size is.
func (l *LinuxServer) HandleRead(p *sim.Proc, args nfsproto.ReadArgs) nfsproto.ReadRes {
	l.disk.Read(p, int64(args.Offset), int64(args.Count))
	return nfsproto.ReadRes{
		Status: nfsproto.NFS3OK,
		Count:  args.Count,
		Data:   nfsproto.Zeroes(int(args.Count)),
	}
}

// HandleCommit implements Backend: block until dirty data reaches disk.
func (l *LinuxServer) HandleCommit(p *sim.Proc, args nfsproto.CommitArgs) nfsproto.CommitRes {
	for l.dirty > 0 {
		l.drainWork.Signal()
		l.cleanWait.Wait(p)
	}
	return nfsproto.CommitRes{Status: nfsproto.NFS3OK, Verf: l.verf}
}

// Disk returns the SCSI disk the writeback process drains to (chaos
// disk_degrade events slow it mid-run).
func (l *LinuxServer) Disk() *disksim.Disk { return l.disk }

func (l *LinuxServer) stableSet(fh nfsproto.FileHandle) *rangeset.Set {
	set, ok := l.stable[fh]
	if !ok {
		set = &rangeset.Set{}
		l.stable[fh] = set
	}
	return set
}

// StableCoverage implements DurabilityTracker: the byte ranges confirmed
// on the server's disk.
func (l *LinuxServer) StableCoverage(fh nfsproto.FileHandle) *rangeset.Set {
	return l.stableSet(fh)
}

// LostBytes implements DurabilityTracker.
func (l *LinuxServer) LostBytes() int64 { return l.Lost }

// ReplayedBytes implements DurabilityTracker: knfsd has no NVRAM log.
func (l *LinuxServer) ReplayedBytes() int64 { return 0 }
