// Package ext2 models the paper's local-filesystem comparison target: an
// ext2 filesystem on the client's EIDE disk. Writes land in the page
// cache at memory speed; a kflushd-style daemon writes dirty pages back
// to the disk; and — the detail the paper's methodology hinges on — ext2
// does NOT flush on close, so "dirty data remains in the system's data
// cache after the final close()" (§2.3). Flush (fsync) does force
// writeback.
package ext2

import (
	"repro/internal/disksim"
	"repro/internal/mm"
	"repro/internal/rangeset"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// File is a local ext2 file.
type File struct {
	cpu   *sim.CPUPool
	cache *mm.PageCache
	disk  *disksim.Disk

	size    int64
	dirty   int64 // bytes dirtied by this file, not yet under writeback
	inFlush int64 // bytes under writeback
	diskOff int64
	work    *sim.WaitQueue
	clean   *sim.WaitQueue
	closed  bool

	readPos int64
	// resident tracks the byte ranges present in the page cache, at
	// page granularity: everything written through this handle plus
	// everything pulled in by reads. Clean pages are never reclaimed.
	resident rangeset.Set
}

// labelExt2CommitWrite is the profiler label for ext2_commit_write.
var labelExt2CommitWrite = sim.NewLabel("ext2_commit_write")

// ext2CommitCPU is ext2_commit_write + block allocation per page.
const ext2CommitCPU = 1_000 // 1 µs

// flushChunk is the writeback granularity.
const flushChunk = 512 << 10

// readChunk is the cluster size the kernel's readahead pulls from disk
// per miss on a sequential scan.
const readChunk = 128 << 10

// NewFile creates an ext2 file backed by the given disk, charging memory
// to cache and CPU to cpu, and starts its writeback daemon.
func NewFile(s *sim.Sim, cpu *sim.CPUPool, cache *mm.PageCache, disk *disksim.Disk) *File {
	f := &File{
		cpu: cpu, cache: cache, disk: disk,
		work:  s.NewWaitQueue(),
		clean: s.NewWaitQueue(),
	}
	s.Go("kflushd/ext2", f.writeback)
	return f
}

// OpenExisting returns an ext2 file already holding size bytes on disk
// with nothing resident in the page cache — the read workloads' cold
// local target.
func OpenExisting(s *sim.Sim, cpu *sim.CPUPool, cache *mm.PageCache, disk *disksim.Disk, size int64) *File {
	if size < 0 {
		panic("ext2: negative file size")
	}
	f := NewFile(s, cpu, cache, disk)
	f.size = size
	return f
}

// Write implements vfs.File: page-cache writes at memory speed, blocking
// only under memory pressure. Appends at the current end of file.
func (f *File) Write(p *sim.Proc, n int) {
	f.WriteAt(p, f.size, n)
}

// WriteAt implements vfs.File: dirty n bytes in place at offset off
// (pwrite), extending the file if the write passes its end. The page
// cache charge and commit cost match Write; only the offset bookkeeping
// differs. The touched pages become resident for read-back.
func (f *File) WriteAt(p *sim.Proc, off int64, n int) {
	if f.closed {
		panic("ext2: write after close")
	}
	if off < 0 || n < 0 {
		panic("ext2: negative write offset or length")
	}
	vfs.WriteSyscall(p, f.cpu, off, n, func(span vfs.PageSpan) {
		f.cpu.Use(p, labelExt2CommitWrite, ext2CommitCPU)
		f.cache.ChargeDirty(p, int64(span.Count))
		f.dirty += int64(span.Count)
	})
	if n > 0 {
		f.resident.Add(pageFloor(off), pageCeil(off+int64(n)))
	}
	if end := off + int64(n); end > f.size {
		f.size = end
	}
	if f.dirty >= flushChunk {
		f.work.Signal()
	}
}

func pageFloor(off int64) int64 { return off &^ (vfs.PageSize - 1) }
func pageCeil(off int64) int64  { return (off + vfs.PageSize - 1) &^ (vfs.PageSize - 1) }

// Read implements vfs.File: page-cache reads at memory speed for
// resident data (anything written through this handle, or pulled in by
// an earlier read); cold pages are fetched from the disk in readahead
// clusters, so a sequential scan streams at media rate after one
// positioning cost.
func (f *File) Read(p *sim.Proc, n int) int {
	got := f.ReadAt(p, f.readPos, n)
	f.readPos += int64(got)
	return got
}

// ReadAt implements vfs.File: pread — the same page-cache/disk read path
// at an arbitrary offset, without moving the read position. Random reads
// still pull whole readahead clusters from the disk, so a random scan of
// a cold file pays one positioning cost per cluster-sized region.
func (f *File) ReadAt(p *sim.Proc, off int64, n int) int {
	if f.closed {
		panic("ext2: read after close")
	}
	if off < 0 || n < 0 {
		panic("ext2: negative read offset or length")
	}
	if off >= f.size {
		return 0
	}
	if rem := f.size - off; int64(n) > rem {
		n = int(rem)
	}
	if n <= 0 {
		return 0
	}
	vfs.ReadSyscall(p, f.cpu, off, n, func(span vfs.PageSpan) {
		start := span.Page*vfs.PageSize + int64(span.Offset)
		end := start + int64(span.Count)
		if f.resident.Contains(pageFloor(start), pageCeil(end)) {
			f.cache.NoteRead(true)
			return
		}
		f.cache.NoteRead(false)
		off := pageFloor(start)
		chunk := int64(readChunk)
		if rem := f.size - off; rem < chunk {
			chunk = rem
		}
		p.Sleep(f.disk.BookRead(off, chunk))
		f.resident.Add(off, pageCeil(off+chunk))
	})
	return n
}

// Flush implements vfs.File: fsync — force out all dirty data and wait.
func (f *File) Flush(p *sim.Proc) {
	for f.dirty > 0 || f.inFlush > 0 {
		f.work.Signal()
		f.clean.Wait(p)
	}
}

// Close implements vfs.File. Faithful to ext2: close does NOT flush; the
// data stays dirty in the page cache (§2.3's fairness discussion).
func (f *File) Close(p *sim.Proc) {
	f.closed = true
}

// Size implements vfs.File.
func (f *File) Size() int64 { return f.size }

// writeback is the kflushd-style daemon: drain dirty pages to disk.
func (f *File) writeback(p *sim.Proc) {
	for {
		for f.dirty == 0 {
			f.work.Wait(p)
		}
		chunk := int64(flushChunk)
		if f.dirty < chunk {
			chunk = f.dirty
		}
		f.dirty -= chunk
		f.inFlush += chunk
		f.cache.StartWriteback(chunk)
		p.Sleep(f.disk.BookWrite(f.diskOff, chunk))
		f.diskOff += chunk
		f.inFlush -= chunk
		f.cache.EndWriteback(chunk)
		if f.dirty == 0 && f.inFlush == 0 {
			f.clean.Broadcast()
		}
	}
}
