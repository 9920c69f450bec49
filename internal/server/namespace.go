package server

import (
	"sync"

	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// Inode is one file's (or export root directory's) shared server-side
// state: the attributes every client sees, mutated only under the
// per-file lock so concurrent writers from different clients serialize
// their pre/post attribute captures. The change counter bumps on every
// mutation from any client — it is the value weak-cache-consistency
// comparisons key on, and unlike mtime it distinguishes two writes that
// land in the same virtual tick.
type Inode struct {
	mu    sync.Mutex
	fh    nfsproto.FileHandle
	attrs nfsproto.FileAttrs
}

// Attrs returns a consistent snapshot of the inode's attributes.
func (ino *Inode) Attrs() nfsproto.FileAttrs {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	return ino.attrs
}

// nsExport is one export's flat namespace: every client machine mounts
// its own export (distinct FSID — or a shared one, for shared-file
// workloads), whose root directory holds the files the metadata
// procedures create and look up. The root directory is itself an Inode
// so CREATE/REMOVE replies carry real directory wcc_data.
type nsExport struct {
	names  map[string]*Inode
	dir    *Inode
	nextID uint64
}

// Namespace is the server's per-file shared state across all exports,
// keyed by the fsid carried in each handle. It lives in the front-end,
// not the backend, and deliberately survives Crash/Restart: the filer
// replays attribute mutations from its NVRAM log during recovery, and
// knfsd writes inode metadata through synchronously — either way the
// change counter must never run backwards across a reboot, or clients
// would mistake old data for fresh.
type Namespace struct {
	s       *sim.Sim
	exports map[uint64]*nsExport
	byFH    map[nfsproto.FileHandle]*Inode

	// ChangeBumps counts change-attribute increments across all files —
	// the server-side ground truth the coherence experiments report.
	ChangeBumps int64
}

// NewNamespace returns an empty namespace.
func NewNamespace(s *sim.Sim) *Namespace {
	return &Namespace{
		s:       s,
		exports: make(map[uint64]*nsExport),
		byFH:    make(map[nfsproto.FileHandle]*Inode),
	}
}

func (ns *Namespace) export(dir nfsproto.FileHandle) *nsExport {
	fsid := nfsproto.HandleFSID(dir)
	ex, ok := ns.exports[fsid]
	if !ok {
		root := &Inode{
			fh: nfsproto.RootHandle(fsid),
			attrs: nfsproto.FileAttrs{
				FileID: nfsproto.RootFileID,
				MTime:  uint64(ns.s.Now()),
			},
		}
		ex = &nsExport{names: make(map[string]*Inode), dir: root, nextID: nfsproto.ServerFileIDBase}
		ns.exports[fsid] = ex
		ns.byFH[root.fh] = root
	}
	return ex
}

// inode returns the per-file state for a handle, registering handles the
// namespace has not seen (client-minted write-path handles) on first
// touch so every written file carries a change counter.
func (ns *Namespace) inode(fh nfsproto.FileHandle) *Inode {
	ino, ok := ns.byFH[fh]
	if !ok {
		ino = &Inode{
			fh:    fh,
			attrs: nfsproto.FileAttrs{FileID: nfsproto.HandleFileID(fh)},
		}
		ns.byFH[fh] = ino
	}
	return ino
}

// mutate applies fn to the inode's attributes under its lock, bumping
// mtime and the change counter and capturing the wcc_data pre/post pair
// atomically around the mutation — no other writer can interleave
// between the pre capture and the post capture.
func (ns *Namespace) mutate(ino *Inode, fn func(a *nfsproto.FileAttrs)) nfsproto.WccData {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	pre := nfsproto.WccAttr{Size: ino.attrs.Size, MTime: ino.attrs.MTime, Change: ino.attrs.Change}
	fn(&ino.attrs)
	ino.attrs.MTime = uint64(ns.s.Now())
	ino.attrs.Change++
	ns.ChangeBumps++
	return nfsproto.WccData{HavePre: true, Pre: pre, HavePost: true, Post: ino.attrs}
}

// snapshot returns wcc_data describing an unmutated inode: pre and post
// both reflect the current attributes.
func (ns *Namespace) snapshot(ino *Inode) nfsproto.WccData {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	pre := nfsproto.WccAttr{Size: ino.attrs.Size, MTime: ino.attrs.MTime, Change: ino.attrs.Change}
	return nfsproto.WccData{HavePre: true, Pre: pre, HavePost: true, Post: ino.attrs}
}

// Lookup resolves name in the export dir belongs to.
func (ns *Namespace) Lookup(dir nfsproto.FileHandle, name string) (*Inode, nfsproto.Status) {
	ino, ok := ns.export(dir).names[name]
	if !ok {
		return nil, nfsproto.NFS3ErrNoEnt
	}
	return ino, nfsproto.NFS3OK
}

// Create makes (or, UNCHECKED semantics, returns the existing) name in
// the export dir belongs to, stamping the current virtual time as mtime
// on a fresh file. The returned wcc_data describes the directory: a
// fresh file mutates it (entry count up, change bumped); hitting an
// existing name leaves it untouched.
func (ns *Namespace) Create(dir nfsproto.FileHandle, name string) (*Inode, nfsproto.WccData) {
	ex := ns.export(dir)
	if ino, ok := ex.names[name]; ok {
		return ino, ns.snapshot(ex.dir)
	}
	fsid := nfsproto.HandleFSID(dir)
	id := ex.nextID
	ex.nextID++
	ino := &Inode{
		fh: nfsproto.MakeFileHandle(fsid, id),
		attrs: nfsproto.FileAttrs{
			FileID: id,
			MTime:  uint64(ns.s.Now()),
		},
	}
	ex.names[name] = ino
	ns.byFH[ino.fh] = ino
	wcc := ns.mutate(ex.dir, func(a *nfsproto.FileAttrs) {
		a.Size = uint64(len(ex.names))
	})
	return ino, wcc
}

// Remove unlinks name from the export dir belongs to, returning the
// directory wcc_data alongside the status.
func (ns *Namespace) Remove(dir nfsproto.FileHandle, name string) (nfsproto.Status, nfsproto.WccData) {
	ex := ns.export(dir)
	ino, ok := ex.names[name]
	if !ok {
		return nfsproto.NFS3ErrNoEnt, ns.snapshot(ex.dir)
	}
	delete(ex.names, name)
	delete(ns.byFH, ino.fh)
	wcc := ns.mutate(ex.dir, func(a *nfsproto.FileAttrs) {
		a.Size = uint64(len(ex.names))
	})
	return nfsproto.NFS3OK, wcc
}

// Getattr returns the attributes of a handle. A handle the namespace
// never saw (not created, never written) is stale, as it is to an
// RFC 1813 server.
func (ns *Namespace) Getattr(fh nfsproto.FileHandle) (nfsproto.FileAttrs, nfsproto.Status) {
	if ino, ok := ns.byFH[fh]; ok {
		return ino.Attrs(), nfsproto.NFS3OK
	}
	return nfsproto.FileAttrs{}, nfsproto.NFS3ErrStale
}

// Change returns a file's current change counter and whether the
// namespace tracks the handle. It is the omniscient ground-truth probe
// the harness uses to count stale reads; servers never answer with it
// directly (clients learn the counter only via GETATTR and wcc_data).
func (ns *Namespace) Change(fh nfsproto.FileHandle) (uint64, bool) {
	ino, ok := ns.byFH[fh]
	if !ok {
		return 0, false
	}
	ino.mu.Lock()
	defer ino.mu.Unlock()
	return ino.attrs.Change, true
}

// ApplyWrite folds an accepted WRITE into the handle's per-file state —
// size high-water mark, mtime, change — and returns the wcc_data pair
// captured atomically around the mutation.
func (ns *Namespace) ApplyWrite(fh nfsproto.FileHandle, end uint64) nfsproto.WccData {
	return ns.mutate(ns.inode(fh), func(a *nfsproto.FileAttrs) {
		if end > a.Size {
			a.Size = end
		}
	})
}
