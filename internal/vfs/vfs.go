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
// explicit flush and close, all blocking in virtual time.
type File interface {
	// Write appends n bytes at the file's current write position.
	Write(p *sim.Proc, n int)
	// WriteAt writes n bytes at an arbitrary offset (pwrite), dirtying
	// existing pages in place — the rewrite workload's second half.
	WriteAt(p *sim.Proc, off int64, n int)
	// Read reads up to n bytes at the file's current read position and
	// returns the bytes actually read (0 at end of file). The read and
	// write positions are independent, like separate file descriptors on
	// one file.
	Read(p *sim.Proc, n int) int
	// ReadAt reads up to n bytes at an arbitrary offset (pread) without
	// moving the read position — the random-access workloads' read path.
	// Returns the bytes read, clamped at end of file.
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

// Costs is the syscall-layer CPU model, calibrated to the paper's client:
// a 933 MHz Pentium III copying from user space through the page cache.
type Costs struct {
	// SyscallEntry covers user/kernel transition and fd lookup.
	SyscallEntry sim.Time
	// PerPageCopy is copy_from_user for one page.
	PerPageCopy sim.Time
	// PerPagePrepare is __grab_cache_page + prepare_write for one page.
	PerPagePrepare sim.Time
}

// DefaultCosts returns the calibrated cost model (~42 µs per 8 KB write
// before filesystem-specific work, ~195 MB/s peak local memory write
// bandwidth as in Figure 1).
func DefaultCosts() Costs {
	return Costs{
		SyscallEntry:   2_000,  // 2 µs
		PerPageCopy:    15_000, // 15 µs
		PerPagePrepare: 5_000,  // 5 µs
	}
}

// PageSpan describes one page-sized piece of a write.
type PageSpan struct {
	// Page is the page index within the file.
	Page int64
	// Offset is the byte offset within the page.
	Offset int
	// Count is the number of bytes in this piece.
	Count int
}

// SplitPages splits a write of n bytes at file offset off into page-sized
// spans, the way generic_file_write iterates.
func SplitPages(off int64, n int) []PageSpan {
	if n <= 0 {
		return nil
	}
	spans := make([]PageSpan, 0, n/PageSize+2)
	for n > 0 {
		page := off / PageSize
		po := int(off % PageSize)
		c := PageSize - po
		if c > n {
			c = n
		}
		spans = append(spans, PageSpan{Page: page, Offset: po, Count: c})
		off += int64(c)
		n -= c
	}
	return spans
}

// WriteSyscall charges the generic write-path CPU for a write of n bytes
// at offset off and invokes commit for each page span in order. It
// returns the spans processed. This is the shared skeleton of
// sys_write -> generic_file_write for both ext2 and NFS files.
func WriteSyscall(p *sim.Proc, cpu *sim.CPUPool, costs Costs, off int64, n int, commit func(PageSpan)) []PageSpan {
	cpu.Use(p, labelSysWrite, costs.SyscallEntry)
	spans := SplitPages(off, n)
	for _, span := range spans {
		cpu.Use(p, labelGenericFileWrite, costs.PerPagePrepare+costs.PerPageCopy)
		commit(span)
	}
	return spans
}

// ReadSyscall charges the generic read-path CPU for a read of n bytes at
// offset off: syscall entry, then per page a fetch callback (the
// filesystem's readpage — it blocks until the page is resident) followed
// by the copy_to_user charge. This is the shared skeleton of
// sys_read -> generic_file_read for both ext2 and NFS files.
func ReadSyscall(p *sim.Proc, cpu *sim.CPUPool, costs Costs, off int64, n int, fetch func(PageSpan)) []PageSpan {
	cpu.Use(p, labelSysRead, costs.SyscallEntry)
	spans := SplitPages(off, n)
	for _, span := range spans {
		fetch(span)
		cpu.Use(p, labelGenericFileRead, costs.PerPageCopy)
	}
	return spans
}
