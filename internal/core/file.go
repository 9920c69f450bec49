package core

import (
	"repro/internal/sim"
	"repro/internal/vfs"
)

// File is an open NFS file; it implements vfs.File. Writes are sequential
// appends (the paper's benchmark writes fresh files front to back); Reads
// advance an independent read position and pull cold pages from the
// server with readahead; Flush is fsync; Close flushes and commits,
// because "NFS ... always flushes completely before last close" (§2.3).
type File struct {
	c       *Client
	ino     *Inode
	readPos int64
	closed  bool

	// name is set for files opened through the namespace (OpenByName);
	// local writes invalidate its attribute-cache entry.
	name string
}

// Write implements vfs.File: the sys_write -> generic_file_write ->
// nfs_commit_write path, followed by the flush-policy checks. The write
// appends at the current end of file.
func (f *File) Write(p *sim.Proc, n int) {
	f.WriteAt(p, f.ino.size, n)
}

// WriteAt writes n bytes at an arbitrary offset (pwrite), for
// database-style workloads that dirty pages out of order. Writing into a
// page with a pending request coalesces client-side, like the kernel.
func (f *File) WriteAt(p *sim.Proc, off int64, n int) {
	if f.closed {
		panic("core: write after close")
	}
	if off < 0 || n < 0 {
		panic("core: negative write offset or length")
	}
	vfs.WriteSyscall(p, f.c.cpu, off, n, func(span vfs.PageSpan) {
		f.c.chargeSpan(p, span.Count)
		netNew := f.c.commitPage(p, f.ino, span.Page, span.Offset, span.Count)
		f.c.creditSurplus(span.Count, netNew)
		f.c.enforceLimits(p, f.ino)
	})
	if end := off + int64(n); end > f.ino.size {
		f.ino.size = end
	}
	if f.name != "" {
		// Local write: cached attributes (size, mtime) no longer describe
		// the file; the next name-based access must revalidate.
		f.c.invalidateAttr(f.name)
	}
}

// Read implements vfs.File: the sys_read -> generic_file_read ->
// nfs_readpage path at the file's current read position. Returns the
// bytes read (0 at end of file).
func (f *File) Read(p *sim.Proc, n int) int {
	got := f.ReadAt(p, f.readPos, n)
	f.readPos += int64(got)
	return got
}

// ReadAt reads up to n bytes at an arbitrary offset (pread), for
// database-style workloads; it does not move the read position. Returns
// the bytes read, clamped at end of file.
func (f *File) ReadAt(p *sim.Proc, off int64, n int) int {
	if f.closed {
		panic("core: read after close")
	}
	if off < 0 || n < 0 {
		panic("core: negative read offset or length")
	}
	if off >= f.ino.size {
		return 0
	}
	if rem := f.ino.size - off; int64(n) > rem {
		n = int(rem)
	}
	if n == 0 {
		return 0
	}
	vfs.ReadSyscall(p, f.c.cpu, off, n, func(span vfs.PageSpan) {
		f.c.readPage(p, f.ino, span.Page)
	})
	return n
}

// Flush implements vfs.File: fsync — push every cached request to the
// server, then COMMIT if any reply was unstable. If a reply or the COMMIT
// reveals a server reboot, the lost ranges were re-queued and the flush
// loops until everything is durable under one verifier.
func (f *File) Flush(p *sim.Proc) {
	for {
		f.c.flushInodeSync(p, f.ino)
		if !f.ino.unstable {
			return
		}
		if f.c.commitSync(p, f.ino) {
			return
		}
	}
}

// Close implements vfs.File: flush and commit, then drop this handle's
// reference — the last close takes the file out of flushd's scan set.
// Anonymous inodes also release their pages; named inodes keep them for
// the next open, like the kernel's inode cache (see closeInode).
func (f *File) Close(p *sim.Proc) {
	if f.closed {
		return
	}
	f.Flush(p)
	f.closed = true
	f.c.closeInode(f.ino)
}

// Size implements vfs.File.
func (f *File) Size() int64 { return f.ino.size }
