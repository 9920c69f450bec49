package server

import (
	"fmt"

	"repro/internal/disksim"
	"repro/internal/fifo"
	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// knfsd's page-cache calibration.
const (
	// dirtyLimit is how much unstable write data the page cache holds
	// before the server throttles incoming writes behind the disk
	// (bdflush-style, ~40% of the 512 MB of RAM in §3.1).
	dirtyLimit = 200 << 20
	// drainChunk is the writeback granularity.
	drainChunk = 1 << 20
)

// LinuxServer is the knfsd backend: UNSTABLE writes land in the page
// cache and a writeback task drains them to a single SCSI disk; COMMIT
// blocks until the dirty data it covers is on disk. This is the durability
// contract the client pays for at close() — the filer never makes it wait.
type LinuxServer struct {
	disk *disksim.Disk
	// dirtyLimit and drainChunk are the constants of the same names; the
	// package's tests shrink them.
	dirtyLimit, drainChunk int64

	dirty     int64
	diskOff   int64
	drainWork *sim.WaitQueue // wakes the writeback task
	dirtyWait *sim.WaitQueue // writers throttled on dirtyLimit
	cleanWait *sim.WaitQueue // COMMIT waiters
	verf      nfsproto.WriteVerf

	// gen is the lifecycle generation, bumped by Crash; the writeback
	// task captures it around each disk write (chunkGen) so a chunk that
	// was in flight when the cache was discarded is not retired against
	// the new instance's accounting.
	gen int

	// queue is the FIFO of acked-but-unstable page-cache ranges awaiting
	// writeback; its byte total always equals dirty. A crash discards it —
	// that is exactly the data knfsd loses.
	queue fifo.Queue[unstableEntry]

	// The writeback task, the chunk it has at the disk, and its
	// continuations, bound once.
	flusher           *sim.Proc
	chunk             int64
	chunkGen          int
	onFlush, onStored func()

	// Throttled counts dirty-limit waits: each time a WRITE finds no
	// room under dirtyLimit and parks. Every stored chunk wakes all
	// throttled writes, and each one that still finds no room waits and
	// counts again, so one write can count several times.
	Throttled int64
	// Flushed counts bytes written back to disk.
	Flushed int64
	// Lost counts bytes of acked UNSTABLE data dropped by crashes (the
	// client must detect the verifier change and rewrite them).
	Lost int64
}

// unstableEntry is one acked write sitting dirty in the page cache.
type unstableEntry struct {
	ino *Inode
	off int64
	n   int64
}

// NewLinuxServer creates the backend draining to the given disk and
// starts its writeback task.
func NewLinuxServer(s *sim.Sim, disk *disksim.Disk) *LinuxServer {
	l := &LinuxServer{
		disk:       disk,
		dirtyLimit: dirtyLimit,
		drainChunk: drainChunk,
		drainWork:  s.NewWaitQueue(),
		dirtyWait:  s.NewWaitQueue(),
		cleanWait:  s.NewWaitQueue(),
		verf:       0x11c4411c44,
	}
	l.onFlush, l.onStored = l.flush, l.stored
	l.flusher = s.NewTask("kupdate/knfsd", l.onFlush)
	return l
}

// flush is the server-side flush daemon's loop head: whenever dirty data
// exists, it writes it to disk in drainChunk units.
func (l *LinuxServer) flush() {
	if l.dirty == 0 {
		l.drainWork.WaitThen(l.flusher, l.onFlush)
		return
	}
	l.chunk = min(l.drainChunk, l.dirty)
	l.chunkGen = l.gen
	l.flusher.SleepThen(l.disk.BookWrite(l.diskOff, l.chunk), l.onStored)
}

// stored retires a chunk the disk has written and wakes throttled
// writers and COMMIT waiters.
func (l *LinuxServer) stored() {
	if l.chunkGen == l.gen {
		chunk := l.chunk
		l.diskOff += chunk
		l.dirty -= chunk
		l.Flushed += chunk
		l.markStable(chunk)
		l.dirtyWait.Broadcast()
		if l.dirty == 0 {
			l.cleanWait.Broadcast()
		}
	}
	// Otherwise the server rebooted while this chunk was at the disk; the
	// crash already discarded the cache it was drawn from.
	l.flush()
}

// markStable retires n bytes from the front of the unstable FIFO into
// each file's stable coverage, splitting the front entry when a writeback
// chunk ends inside it.
func (l *LinuxServer) markStable(n int64) {
	for n > 0 && l.queue.Len() > 0 {
		e := &l.queue.Items()[0]
		take := e.n
		if take > n {
			take = n
		}
		e.ino.stable.Add(e.off, e.off+take)
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

// HandleWrite implements Backend: a write that would take the page cache
// past dirtyLimit waits for the writeback task.
func (l *LinuxServer) HandleWrite(p *sim.Proc, ino *Inode, args nfsproto.WriteArgs, retry func()) (nfsproto.WriteRes, bool) {
	if args.Stable != nfsproto.Unstable {
		// The modeled client sends only UNSTABLE writes and pays for
		// durability at COMMIT.
		panic(fmt.Sprintf("server: knfsd got a %v WRITE", args.Stable))
	}
	n := int64(args.Count)
	if l.dirty+n > l.dirtyLimit {
		l.Throttled++
		l.drainWork.Signal()
		l.dirtyWait.WaitThen(p, retry)
		return nfsproto.WriteRes{}, false
	}
	l.dirty += n
	l.queue.Push(unstableEntry{ino: ino, off: int64(args.Offset), n: n})
	l.drainWork.Signal()
	return nfsproto.WriteRes{
		Status:    nfsproto.NFS3OK,
		Count:     args.Count,
		Committed: nfsproto.Unstable,
		Verf:      l.verf,
	}, true
}

// HandleRead implements Backend: a cold-file read served from the SCSI
// disk at the file's byte offset. Sequential client READs arrive as
// sequential disk reads and stream at media rate after one positioning
// cost; a read interleaved with the writeback drain (or a client seek)
// repositions the head. The returned data is Count zero bytes — content
// is not modeled, but the reply's wire size is.
func (l *LinuxServer) HandleRead(args nfsproto.ReadArgs) (nfsproto.ReadRes, sim.Time) {
	wait := l.disk.BookRead(int64(args.Offset), int64(args.Count))
	return nfsproto.ReadRes{
		Status: nfsproto.NFS3OK,
		Count:  args.Count,
		Data:   nfsproto.Zeroes(int(args.Count)),
	}, wait
}

// HandleCommit implements Backend: wait until the dirty data is on disk.
func (l *LinuxServer) HandleCommit(p *sim.Proc, args nfsproto.CommitArgs, retry func()) (nfsproto.CommitRes, bool) {
	if l.dirty > 0 {
		l.drainWork.Signal()
		l.cleanWait.WaitThen(p, retry)
		return nfsproto.CommitRes{}, false
	}
	return nfsproto.CommitRes{Status: nfsproto.NFS3OK, Verf: l.verf}, true
}

// SetDiskSlowFactor implements Backend: it slows the SCSI disk the
// writeback task drains to.
func (l *LinuxServer) SetDiskSlowFactor(factor float64) { l.disk.SetSlowFactor(factor) }

// LostBytes implements Backend.
func (l *LinuxServer) LostBytes() int64 { return l.Lost }

// ReplayedBytes implements Backend: knfsd has no NVRAM log.
func (l *LinuxServer) ReplayedBytes() int64 { return 0 }
