package server

import (
	"testing"
	"time"

	"repro/internal/nfsproto"
	"repro/internal/rpcsim"
	"repro/internal/sim"
)

// TestApplyWriteWccChain pins the per-file mutation contract: every
// accepted write bumps the change counter by exactly one, each wcc
// pre-op equals the previous write's post-op (no interleaving inside
// the locked capture), and size is a high-water mark.
func TestApplyWriteWccChain(t *testing.T) {
	s := sim.New(1)
	ns := NewNamespace(s)
	fh := nfsproto.MakeFileHandle(1, 7)

	w1 := ns.ApplyWrite(ns.record(fh), 8192)
	if !w1.HavePre || !w1.HavePost {
		t.Fatalf("wcc arms missing: %+v", w1)
	}
	if w1.Pre.Change != 0 || w1.Post.Change != 1 {
		t.Fatalf("first write change pre=%d post=%d, want 0/1", w1.Pre.Change, w1.Post.Change)
	}
	if w1.Post.Size != 8192 {
		t.Fatalf("post size %d, want 8192", w1.Post.Size)
	}
	w2 := ns.ApplyWrite(ns.record(fh), 4096) // shorter write: size must not shrink
	if w2.Pre != (nfsproto.WccAttr{Size: w1.Post.Size, MTime: w1.Post.MTime, Change: w1.Post.Change}) {
		t.Fatalf("second write pre %+v does not chain from first post %+v", w2.Pre, w1.Post)
	}
	if w2.Post.Size != 8192 || w2.Post.Change != 2 {
		t.Fatalf("post after short write: %+v", w2.Post)
	}
	if ns.ChangeBumps != 2 {
		t.Fatalf("ChangeBumps = %d, want 2", ns.ChangeBumps)
	}
	if c, ok := ns.Change(fh); !ok || c != 2 {
		t.Fatalf("Change(fh) = %d,%v", c, ok)
	}
}

// TestSharedFileChangeAcrossClients pins that writes from different
// clients against one handle serialize on the same per-file state: the
// change counter counts all writers, not per-client.
func TestSharedFileChangeAcrossClients(t *testing.T) {
	s := sim.New(1)
	ns := NewNamespace(s)
	fh := nfsproto.MakeFileHandle(1, 9)
	for i := 0; i < 3; i++ { // client A
		ns.ApplyWrite(ns.record(fh), uint64(8192*(i+1)))
	}
	for i := 0; i < 2; i++ { // client B, same handle
		ns.ApplyWrite(ns.record(fh), uint64(4096*(i+1)))
	}
	if c, _ := ns.Change(fh); c != 5 {
		t.Fatalf("change after 3+2 writes = %d, want 5", c)
	}
}

// TestDirectoryWccOnCreateRemove pins the directory's own inode state:
// CREATE and REMOVE mutate it (entry count as size, change bumped),
// UNCHECKED re-create of an existing name does not.
func TestDirectoryWccOnCreateRemove(t *testing.T) {
	s := sim.New(1)
	ns := NewNamespace(s)
	dir := nfsproto.RootHandle(4)

	_, w1 := ns.Create(dir, "a")
	if w1.Pre.Change != 0 || w1.Post.Change != 1 || w1.Post.Size != 1 {
		t.Fatalf("create wcc: %+v", w1)
	}
	_, w2 := ns.Create(dir, "a") // UNCHECKED hit: no mutation
	if w2.Pre.Change != 1 || w2.Post.Change != 1 {
		t.Fatalf("re-create wcc should be a snapshot: %+v", w2)
	}
	st, w3 := ns.Remove(dir, "a")
	if st != nfsproto.NFS3OK || w3.Post.Change != 2 || w3.Post.Size != 0 {
		t.Fatalf("remove: st=%v wcc=%+v", st, w3)
	}
	if st, _ := ns.Remove(dir, "a"); st != nfsproto.NFS3ErrNoEnt {
		t.Fatalf("double remove st=%v", st)
	}
}

// TestChangeSurvivesCrashRestart drives WRITEs over the wire against the
// filer, crashes it mid-life, restarts it, writes again, and requires
// the change attribute to continue monotonically — the NVRAM replay
// restores attribute state, so a rebooted server must never hand out a
// counter the fleet has already seen.
func TestChangeSurvivesCrashRestart(t *testing.T) {
	r, _ := newRig(t, "filer")
	fh := nfsproto.MakeFileHandle(1, 3)

	var before, after nfsproto.WriteRes
	r.s.Go("w", func(p *sim.Proc) {
		write := func() nfsproto.WriteRes {
			args := nfsproto.WriteArgs{File: fh, Offset: 0, Count: 8192, Stable: nfsproto.Unstable, Data: make([]byte, 8192)}
			res, err := rpcsim.CallSync(r.tr, p, nfsproto.ProcWrite, args.Encode, nfsproto.DecodeWriteRes)
			if err != nil {
				t.Errorf("decode: %v", err)
			}
			return res
		}
		before = write()
		r.srv.Crash()
		r.srv.Restart()
		after = write()
	})
	r.s.Run(time.Minute)

	if before.Status != nfsproto.NFS3OK || !before.Wcc.HavePost {
		t.Fatalf("pre-crash write: %+v", before)
	}
	if after.Status != nfsproto.NFS3OK {
		t.Fatalf("post-restart write: %+v", after)
	}
	if after.Wcc.Pre.Change != before.Wcc.Post.Change {
		t.Fatalf("change regressed across restart: pre-crash post=%d, post-restart pre=%d",
			before.Wcc.Post.Change, after.Wcc.Pre.Change)
	}
	if after.Wcc.Post.Change <= before.Wcc.Post.Change {
		t.Fatalf("change not monotonic across restart: %d then %d",
			before.Wcc.Post.Change, after.Wcc.Post.Change)
	}
}

// TestWriteReplyCarriesWccOnWire pins that the encoded WRITE3 reply a
// client decodes carries both wcc arms with the post-op size covering
// the write.
func TestWriteReplyCarriesWccOnWire(t *testing.T) {
	r, _ := newRig(t, "linux")
	fh := nfsproto.MakeFileHandle(1, 5)
	var res nfsproto.WriteRes
	r.s.Go("w", func(p *sim.Proc) {
		args := nfsproto.WriteArgs{File: fh, Offset: 8192, Count: 8192, Stable: nfsproto.Unstable, Data: make([]byte, 8192)}
		var err error
		res, err = rpcsim.CallSync(r.tr, p, nfsproto.ProcWrite, args.Encode, nfsproto.DecodeWriteRes)
		if err != nil {
			t.Errorf("decode: %v", err)
		}
	})
	r.s.Run(time.Minute)
	if res.Status != nfsproto.NFS3OK {
		t.Fatalf("write failed: %+v", res)
	}
	if !res.Wcc.HavePre || !res.Wcc.HavePost {
		t.Fatalf("wcc arms missing on the wire: %+v", res.Wcc)
	}
	if res.Wcc.Post.Size != 16384 || res.Wcc.Post.Change == 0 {
		t.Fatalf("post-op attrs: %+v", res.Wcc.Post)
	}
}

// TestGetattrStaleHandle pins GETATTR's answer for handles: a created
// file and a written client-minted handle answer with their attributes;
// a handle the namespace never saw, or one whose file was removed, is
// NFS3ERR_STALE with zero attributes.
func TestGetattrStaleHandle(t *testing.T) {
	s := sim.New(1)
	ns := NewNamespace(s)
	dir := nfsproto.RootHandle(4)
	ino, _ := ns.Create(dir, "a")
	if attrs, st := ns.Getattr(ino.fh); st != nfsproto.NFS3OK || attrs != ino.Attrs() {
		t.Fatalf("Getattr(created) = %+v, %v", attrs, st)
	}
	written := nfsproto.MakeFileHandle(4, 12)
	ns.ApplyWrite(ns.record(written), 8192)
	if attrs, st := ns.Getattr(written); st != nfsproto.NFS3OK || attrs.Size != 8192 || attrs.Change != 1 {
		t.Fatalf("Getattr(written) = %+v, %v", attrs, st)
	}
	if attrs, st := ns.Getattr(nfsproto.MakeFileHandle(4, 99)); st != nfsproto.NFS3ErrStale || attrs != (nfsproto.FileAttrs{}) {
		t.Fatalf("Getattr(never seen) = %+v, %v, want NFS3ERR_STALE", attrs, st)
	}
	ns.Remove(dir, "a")
	if _, st := ns.Getattr(ino.fh); st != nfsproto.NFS3ErrStale {
		t.Fatalf("Getattr(removed) = %v, want NFS3ERR_STALE", st)
	}
}

// rpcWrite sends one 8 KiB UNSTABLE WRITE at off and returns the reply.
func rpcWrite(t *testing.T, r *rig, p *sim.Proc, fh nfsproto.FileHandle, off uint64) nfsproto.WriteRes {
	args := nfsproto.WriteArgs{File: fh, Offset: off, Count: 8192, Stable: nfsproto.Unstable, Data: make([]byte, 8192)}
	res, err := rpcsim.CallSync(r.tr, p, nfsproto.ProcWrite, args.Encode, nfsproto.DecodeWriteRes)
	if err != nil || res.Status != nfsproto.NFS3OK {
		t.Errorf("write %d: %+v, %v", off, res, err)
	}
	return res
}

// rpcGetattr sends one GETATTR and returns the reply.
func rpcGetattr(t *testing.T, r *rig, p *sim.Proc, fh nfsproto.FileHandle) nfsproto.GetattrRes {
	args := nfsproto.GetattrArgs{File: fh}
	res, err := rpcsim.CallSync(r.tr, p, nfsproto.ProcGetattr, args.Encode, nfsproto.DecodeGetattrRes)
	if err != nil {
		t.Errorf("getattr: %v", err)
	}
	return res
}

// createRemove CREATEs name in dir, WRITEs its first 8 KiB and REMOVEs
// it, returning the created handle.
func createRemove(t *testing.T, r *rig, p *sim.Proc, dir nfsproto.FileHandle, name string) nfsproto.FileHandle {
	cargs := nfsproto.CreateArgs{Dir: dir, Name: name}
	cres, err := rpcsim.CallSync(r.tr, p, nfsproto.ProcCreate, cargs.Encode, nfsproto.DecodeCreateRes)
	if err != nil || cres.Status != nfsproto.NFS3OK {
		t.Fatalf("create: %+v, %v", cres, err)
	}
	rpcWrite(t, r, p, cres.File, 0)
	rargs := nfsproto.RemoveArgs{Dir: dir, Name: name}
	if rres, err := rpcsim.CallSync(r.tr, p, nfsproto.ProcRemove, rargs.Encode, nfsproto.DecodeRemoveRes); err != nil || rres.Status != nfsproto.NFS3OK {
		t.Fatalf("remove: %+v, %v", rres, err)
	}
	return cres.File
}

// A client-minted handle becomes visible when its first WRITE is
// applied, not when the server starts serving it: a GETATTR that
// arrives while that WRITE waits out a filer consistency-point pause
// answers NFS3ERR_STALE, and one after the reply sees the write.
func TestGetattrStaleWhileFirstWriteParked(t *testing.T) {
	r, backend := newRig(t, "filer")
	backend.(*Filer).pauseUntil = 50 * time.Millisecond
	fh := nfsproto.MakeFileHandle(1, 7)
	var parked, after nfsproto.GetattrRes
	r.s.Go("w", func(p *sim.Proc) { rpcWrite(t, r, p, fh, 0) })
	r.s.Go("g", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		parked = rpcGetattr(t, r, p, fh)
		p.Sleep(100 * time.Millisecond)
		after = rpcGetattr(t, r, p, fh)
	})
	r.s.Run(time.Minute)
	if parked.Status != nfsproto.NFS3ErrStale {
		t.Fatalf("GETATTR during the parked first WRITE = %+v, want NFS3ERR_STALE", parked)
	}
	if after.Status != nfsproto.NFS3OK || after.Attrs.Size != 8192 || after.Attrs.Change != 1 {
		t.Fatalf("GETATTR after the WRITE = %+v, want size 8192, change 1", after)
	}
}

// A WRITE to a removed file's handle brings the handle back with
// attributes that start over: size is the write's end and the change
// counter is 1, not a continuation of the removed file's.
func TestWriteAfterRemoveRestartsAttrs(t *testing.T) {
	r, _ := newRig(t, "filer")
	var res nfsproto.GetattrRes
	var dead nfsproto.FileHandle
	r.s.Go("w", func(p *sim.Proc) {
		dead = createRemove(t, r, p, nfsproto.RootHandle(1), "a")
		if st := rpcGetattr(t, r, p, dead).Status; st != nfsproto.NFS3ErrStale {
			t.Errorf("GETATTR on the removed file = %v, want NFS3ERR_STALE", st)
		}
		rpcWrite(t, r, p, dead, 8192)
		res = rpcGetattr(t, r, p, dead)
	})
	r.s.Run(time.Minute)
	if res.Status != nfsproto.NFS3OK || res.Attrs.Size != 16384 || res.Attrs.Change != 1 ||
		res.Attrs.FileID != nfsproto.HandleFileID(dead) {
		t.Fatalf("GETATTR after a WRITE to the removed handle = %+v, want fresh attrs: size 16384, change 1", res)
	}
}

// Coverage accounting outlives REMOVE: the no-data-loss walk still
// finds the removed file's acked bytes, in stable storage.
func TestRemovedFileStaysInNoDataLossWalk(t *testing.T) {
	r, _ := newRig(t, "linux")
	var removed nfsproto.FileHandle
	r.s.Go("w", func(p *sim.Proc) {
		removed = createRemove(t, r, p, nfsproto.RootHandle(1), "a")
		args := nfsproto.CommitArgs{File: removed}
		if res, err := rpcsim.CallSync(r.tr, p, nfsproto.ProcCommit, args.Encode, nfsproto.DecodeCommitRes); err != nil || res.Status != nfsproto.NFS3OK {
			t.Errorf("commit: %+v, %v", res, err)
		}
	})
	r.s.Run(time.Minute)
	var walked []nfsproto.FileHandle
	var ino *Inode
	for fh, rec := range r.srv.Names().Written() {
		walked, ino = append(walked, fh), rec
	}
	if len(walked) != 1 || walked[0] != removed {
		t.Fatalf("walk = %x, want only the removed file %x", walked, removed)
	}
	if ino.Received().Total() != 8192 || !ino.Stable().Contains(0, 8192) {
		t.Fatalf("removed file: received %v, stable %v, want [0,8192) in both", ino.Received(), ino.Stable())
	}
}
