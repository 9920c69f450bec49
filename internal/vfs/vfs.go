// Package vfs models the Linux 2.4 VFS I/O paths shared by every
// filesystem in the simulation. The write path: the write() system call
// splits user buffers into page-sized pieces ("The Linux VFS layer passes
// write requests no larger than a page to file systems, one at a time",
// §3.4), charges per-page copy and bookkeeping CPU, and hands each page
// to the filesystem's commit_write implementation. The read path is its
// dual: read() walks the same page spans, asks the filesystem to make
// each page resident (generic_file_read -> readpage), and charges the
// copy_to_user cost per page.
package vfs

import (
	"iter"

	"repro/internal/sim"
)

// Profiler labels for the generic system-call paths.
var (
	labelSysWrite         = sim.NewLabel("sys_write")
	labelGenericFileWrite = sim.NewLabel("generic_file_write")
	labelSysRead          = sim.NewLabel("sys_read")
	labelGenericFileRead  = sim.NewLabel("generic_file_read")
)

// PageSize is the i386 page size; an 8 KB benchmark write is two pages
// ("8192 bytes is two pages, thus two requests", §3.3).
const PageSize = 4096

// File is what the benchmark drives: a readable and writable file with
// explicit flush and close, all blocking in virtual time. I/O is
// positional (pread/pwrite): the caller names every offset, so a file
// keeps no position.
type File interface {
	// WriteAt writes n bytes at offset off, extending the file if the
	// write passes its end; writing at Size() appends.
	WriteAt(p *sim.Proc, off int64, n int)
	// ReadAt reads up to n bytes at offset off and returns the bytes
	// read, clamped at end of file (0 at or past it).
	ReadAt(p *sim.Proc, off int64, n int) int
	// Flush makes all written data durable (fsync semantics).
	Flush(p *sim.Proc)
	// Close flushes remaining state and releases the file.
	Close(p *sim.Proc)
	// Size returns the file's size in bytes.
	Size() int64
}

// Namespace is the metadata face of a target: name-based open (creating
// on first use), stat and remove against a flat directory. NFS targets
// back it with LOOKUP/CREATE/GETATTR/REMOVE RPCs through the client's
// attribute cache; targets without a namespace (local ext2 test beds)
// leave OpenSet.Names nil.
type Namespace interface {
	// OpenByName opens name, creating it empty if it does not exist.
	OpenByName(p *sim.Proc, name string) File
	// Stat returns name's size and whether it exists.
	Stat(p *sim.Proc, name string) (int64, bool)
	// Remove unlinks name, reporting whether it existed.
	Remove(p *sim.Proc, name string) bool
}

// OpenSet provides the ways a workload can open files on one target:
// Fresh creates a new empty file (the write benchmark's fresh file),
// Existing opens a file that already holds size bytes of data with no
// pages resident in the client's cache (the read benchmark's cold file).
// Names, when non-nil, adds the name-based metadata operations the
// many-file workloads drive.
type OpenSet struct {
	Fresh    func() File
	Existing func(size int64) File
	Names    Namespace
}

// The syscall-layer CPU model, calibrated to the paper's client: a
// 933 MHz Pentium III copying from user space through the page cache.
// An 8 KB write costs ~42 µs here before filesystem-specific work,
// ~195 MB/s peak local memory write bandwidth as in Figure 1.
const (
	// syscallEntry covers user/kernel transition and fd lookup.
	syscallEntry sim.Time = 2_000 // 2 µs
	// perPageCopy is copy_from_user (or copy_to_user) for one page.
	perPageCopy sim.Time = 15_000 // 15 µs
	// perPagePrepare is __grab_cache_page + prepare_write for one page.
	perPagePrepare sim.Time = 5_000 // 5 µs
)

// PageSpan describes one page-sized piece of a write.
type PageSpan struct {
	// Page is the page index within the file.
	Page int64
	// Offset is the byte offset within the page.
	Offset int
	// Count is the number of bytes in this piece.
	Count int
}

// splitPages yields the page-sized spans of a write of n bytes at file
// offset off, the way generic_file_write iterates. It builds no slice, so
// a syscall walks its pages without allocating.
func splitPages(off int64, n int) iter.Seq[PageSpan] {
	return func(yield func(PageSpan) bool) {
		for n > 0 {
			page := off / PageSize
			po := int(off % PageSize)
			c := min(PageSize-po, n)
			if !yield(PageSpan{Page: page, Offset: po, Count: c}) {
				return
			}
			off += int64(c)
			n -= c
		}
	}
}

// WriteSyscall charges the generic write-path CPU for a write of n bytes
// at offset off and invokes commit for each page span in order. This is
// the shared skeleton of sys_write -> generic_file_write for both ext2
// and NFS files.
func WriteSyscall(p *sim.Proc, cpu *sim.CPUPool, off int64, n int, commit func(PageSpan)) {
	cpu.Use(p, labelSysWrite, syscallEntry)
	for span := range splitPages(off, n) {
		cpu.Use(p, labelGenericFileWrite, perPagePrepare+perPageCopy)
		commit(span)
	}
}

// ReadSyscall charges the generic read-path CPU for a read of n bytes at
// offset off: syscall entry, then per page a fetch callback (the
// filesystem's readpage — it blocks until the page is resident) followed
// by the copy_to_user charge. This is the shared skeleton of
// sys_read -> generic_file_read for both ext2 and NFS files.
func ReadSyscall(p *sim.Proc, cpu *sim.CPUPool, off int64, n int, fetch func(PageSpan)) {
	cpu.Use(p, labelSysRead, syscallEntry)
	for span := range splitPages(off, n) {
		fetch(span)
		cpu.Use(p, labelGenericFileRead, perPageCopy)
	}
}
