package server

import (
	"bytes"
	"iter"
	"slices"
	"sync"

	"repro/internal/nfsproto"
	"repro/internal/rangeset"
	"repro/internal/sim"
)

// Inode is the server's one record for a file handle (or an export root
// directory). The attributes every client sees are mutated only under
// the per-file lock so concurrent writers from different clients
// serialize their pre/post attribute captures. The change counter bumps
// on every mutation from any client — it is the value
// weak-cache-consistency comparisons key on, and unlike mtime it
// distinguishes two writes that land in the same virtual tick.
//
// The record also carries the file's durability accounting: received is
// every byte range the front end acked, stable every range the backend
// made durable. Accounting is never forgotten, so a record outlives its
// file's REMOVE; live says whether the namespace shows the handle.
type Inode struct {
	mu    sync.Mutex
	fh    nfsproto.FileHandle
	attrs nfsproto.FileAttrs
	live  bool

	received rangeset.Set
	stable   rangeset.Set
}

// Attrs returns a consistent snapshot of the inode's attributes.
func (ino *Inode) Attrs() nfsproto.FileAttrs {
	ino.mu.Lock()
	defer ino.mu.Unlock()
	return ino.attrs
}

// Received returns the byte ranges the server acked for the file.
func (ino *Inode) Received() *rangeset.Set { return &ino.received }

// Stable returns the byte ranges the backend holds in stable storage.
func (ino *Inode) Stable() *rangeset.Set { return &ino.stable }

// revive makes a record live with fresh attributes, as a newly created
// (or newly written) file starts out.
func (ino *Inode) revive(attrs nfsproto.FileAttrs) {
	ino.attrs = attrs
	ino.live = true
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

// Namespace holds the server's file records across all exports, each
// export found by the fsid carried in its handles. It lives in the
// front-end, not the backend, and deliberately survives Crash/Restart:
// the filer replays attribute mutations from its NVRAM log during
// recovery, and knfsd writes inode metadata through synchronously —
// either way the change counter must never run backwards across a
// reboot, or clients would mistake old data for fresh.
type Namespace struct {
	s       *sim.Sim
	exports map[uint64]*nsExport
	// files holds the record of every handle the server has touched.
	files map[nfsproto.FileHandle]*Inode

	// ChangeBumps counts change-attribute increments across all files —
	// the server-side ground truth the coherence experiments report.
	ChangeBumps int64
}

// NewNamespace returns an empty namespace.
func NewNamespace(s *sim.Sim) *Namespace {
	return &Namespace{
		s:       s,
		exports: make(map[uint64]*nsExport),
		files:   make(map[nfsproto.FileHandle]*Inode),
	}
}

func (ns *Namespace) export(dir nfsproto.FileHandle) *nsExport {
	fsid := nfsproto.HandleFSID(dir)
	ex, ok := ns.exports[fsid]
	if !ok {
		root := ns.record(nfsproto.RootHandle(fsid))
		root.revive(nfsproto.FileAttrs{FileID: nfsproto.RootFileID, MTime: uint64(ns.s.Now())})
		ex = &nsExport{names: make(map[string]*Inode), dir: root, nextID: nfsproto.ServerFileIDBase}
		ns.exports[fsid] = ex
	}
	return ex
}

// record returns the record for a handle, adding one the namespace does
// not show yet on first touch (a client-minted write-path handle). The
// record goes live when the handle's first WRITE is applied.
func (ns *Namespace) record(fh nfsproto.FileHandle) *Inode {
	ino, ok := ns.files[fh]
	if !ok {
		ino = &Inode{fh: fh}
		ns.files[fh] = ino
	}
	return ino
}

// live returns the record of a handle the namespace shows.
func (ns *Namespace) live(fh nfsproto.FileHandle) (*Inode, bool) {
	ino, ok := ns.files[fh]
	return ino, ok && ino.live
}

// Written returns every file the server acked bytes of, with its
// record, in byte-wise handle order — the walk integrity checks make.
func (ns *Namespace) Written() iter.Seq2[nfsproto.FileHandle, *Inode] {
	var written []*Inode
	for _, ino := range ns.files {
		if ino.received.Total() > 0 {
			written = append(written, ino)
		}
	}
	slices.SortFunc(written, func(a, b *Inode) int { return bytes.Compare(a.fh[:], b.fh[:]) })
	return func(yield func(nfsproto.FileHandle, *Inode) bool) {
		for _, ino := range written {
			if !yield(ino.fh, ino) {
				return
			}
		}
	}
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
	id := ex.nextID
	ex.nextID++
	ino := ns.record(nfsproto.MakeFileHandle(nfsproto.HandleFSID(dir), id))
	ino.revive(nfsproto.FileAttrs{FileID: id, MTime: uint64(ns.s.Now())})
	ex.names[name] = ino
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
	ino.live = false
	wcc := ns.mutate(ex.dir, func(a *nfsproto.FileAttrs) {
		a.Size = uint64(len(ex.names))
	})
	return nfsproto.NFS3OK, wcc
}

// Getattr returns the attributes of a handle. A handle the namespace
// does not show (never created or written, or removed) is stale, as it
// is to an RFC 1813 server.
func (ns *Namespace) Getattr(fh nfsproto.FileHandle) (nfsproto.FileAttrs, nfsproto.Status) {
	if ino, ok := ns.live(fh); ok {
		return ino.Attrs(), nfsproto.NFS3OK
	}
	return nfsproto.FileAttrs{}, nfsproto.NFS3ErrStale
}

// Change returns a file's current change counter and whether the
// namespace tracks the handle. It is the omniscient ground-truth probe
// the harness uses to count stale reads; servers never answer with it
// directly (clients learn the counter only via GETATTR and wcc_data).
func (ns *Namespace) Change(fh nfsproto.FileHandle) (uint64, bool) {
	ino, ok := ns.live(fh)
	if !ok {
		return 0, false
	}
	ino.mu.Lock()
	defer ino.mu.Unlock()
	return ino.attrs.Change, true
}

// ApplyWrite folds an accepted WRITE into the file's record — size
// high-water mark, mtime, change — and returns the wcc_data pair captured
// atomically around the mutation. A handle the namespace does not show
// goes live with its attributes starting over from its file id.
func (ns *Namespace) ApplyWrite(ino *Inode, end uint64) nfsproto.WccData {
	if !ino.live {
		ino.revive(nfsproto.FileAttrs{FileID: nfsproto.HandleFileID(ino.fh)})
	}
	return ns.mutate(ino, func(a *nfsproto.FileAttrs) {
		if end > a.Size {
			a.Size = end
		}
	})
}
