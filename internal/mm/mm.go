// Package mm models the client's memory management as the paper's fixes
// require it: once the arbitrary MAX_REQUEST_SOFT/HARD limits are removed,
// "the client should cache as many requests as it can in available memory
// [Macklem]; there is no need to flush ... unless the client cannot
// allocate more memory for new requests, in which case the VFS layer
// blocks the writer" (§3.3). PageCache provides exactly that: dirty +
// writeback accounting against a memory budget, with writer throttling.
package mm

import (
	"fmt"

	"repro/internal/sim"
)

// PageCache tracks dirty and in-writeback bytes against a budget, plus
// read-side lookup accounting: every page read is either a hit (the page
// was resident — written earlier, or filled by a previous READ) or a miss
// that had to go to the server or disk.
type PageCache struct {
	s *sim.Sim
	// limit is the maximum of dirty+writeback bytes before writers block
	// (the machine's RAM minus kernel and benchmark working set).
	limit int64

	dirty     int64
	writeback int64
	wait      *sim.WaitQueue

	// ThrottleEvents counts writer blocks due to memory pressure.
	ThrottleEvents int64
	// ThrottledTime accumulates total writer wall time lost to throttling.
	ThrottledTime sim.Time
	// PeakUsage is the high-water mark of dirty+writeback.
	PeakUsage int64

	// ReadHits counts page reads served from resident pages; ReadMisses
	// counts reads that had to fetch. Clean resident pages are not charged
	// against the dirty budget (the kernel reclaims them for free under
	// pressure), so these are counters, not bytes in Usage.
	ReadHits   int64
	ReadMisses int64
}

// ClientRAM is the paper's client memory size (256 MB of PC133 SDRAM).
const ClientRAM = 256 << 20

// DefaultDirtyLimit is the default page-cache budget: RAM minus ~48 MB of
// kernel text/structures and benchmark working set.
const DefaultDirtyLimit = ClientRAM - (48 << 20)

// New returns a page cache with the given dirty+writeback budget.
func New(s *sim.Sim, limit int64) *PageCache {
	if limit <= 0 {
		panic("mm: limit must be positive")
	}
	return &PageCache{s: s, limit: limit, wait: s.NewWaitQueue()}
}

// Limit returns the configured budget.
func (c *PageCache) Limit() int64 { return c.limit }

// Usage returns dirty+writeback.
func (c *PageCache) Usage() int64 { return c.dirty + c.writeback }

// Writeback returns the bytes currently being written out.
//
//lint:allow unusedexport a core test bounds the page cache by the writeback in flight
func (c *PageCache) Writeback() int64 { return c.writeback }

// Throttled reports whether any writer is currently parked in
// ChargeDirty waiting for room. Write-behind daemons treat this as
// memory pressure: the parked writer's pending charge is not yet in
// Usage, so threshold checks alone can miss it.
func (c *PageCache) Throttled() bool { return c.wait.Waiting() > 0 }

// ChargeDirty blocks p until n bytes fit in the budget, then accounts
// them as dirty. This is the VFS blocking the writer under memory
// pressure — the correct replacement for the 2.4.4 request-count limits.
func (c *PageCache) ChargeDirty(p *sim.Proc, n int64) {
	if n < 0 {
		panic("mm: negative charge")
	}
	if c.Usage()+n > c.limit {
		c.ThrottleEvents++
		t0 := c.s.Now()
		for c.Usage()+n > c.limit {
			c.wait.Wait(p)
		}
		c.ThrottledTime += c.s.Now() - t0
	}
	c.dirty += n
	if u := c.Usage(); u > c.PeakUsage {
		c.PeakUsage = u
	}
}

// ForceDirty accounts n bytes as dirty without blocking, even past the
// budget. Crash recovery uses it from event context — a WRITE or COMMIT
// reply discovering a changed verifier must re-dirty the lost ranges
// immediately, and a completion handler cannot park in ChargeDirty.
func (c *PageCache) ForceDirty(n int64) {
	if n < 0 {
		panic("mm: negative charge")
	}
	c.dirty += n
	if u := c.Usage(); u > c.PeakUsage {
		c.PeakUsage = u
	}
}

// CreditDirty returns n dirty bytes that turned out not to be net-new (a
// pessimistic charge taken before the page commit discovered it was
// extending or rewriting an existing request) and wakes throttled
// writers.
func (c *PageCache) CreditDirty(n int64) {
	if n > c.dirty {
		panic(fmt.Sprintf("mm: credit %d exceeds dirty %d", n, c.dirty))
	}
	c.dirty -= n
	c.wait.Broadcast()
}

// StartWriteback moves n bytes from dirty to writeback.
func (c *PageCache) StartWriteback(n int64) {
	if n > c.dirty {
		panic(fmt.Sprintf("mm: writeback %d exceeds dirty %d", n, c.dirty))
	}
	c.dirty -= n
	c.writeback += n
}

// EndWriteback releases n bytes of completed writeback and wakes
// throttled writers.
func (c *PageCache) EndWriteback(n int64) {
	if n > c.writeback {
		panic(fmt.Sprintf("mm: end writeback %d exceeds %d", n, c.writeback))
	}
	c.writeback -= n
	c.wait.Broadcast()
}

// NoteRead records one page-read lookup: a hit when the page was
// resident, a miss otherwise.
func (c *PageCache) NoteRead(hit bool) {
	if hit {
		c.ReadHits++
	} else {
		c.ReadMisses++
	}
}

// Readahead is one inode's sequential read window, the read-side dual of
// the paper's write-behind: misses on a sequential run grow the window so
// fetches stay ahead of the reader, and any non-sequential access (a
// seek) collapses it back to the minimum, like the 2.4 generic file
// readahead state machine.
type Readahead struct {
	// Min is the window a fresh or just-seeked stream starts with; Max
	// caps growth. Max <= 0 disables readahead entirely (Access always
	// returns 0).
	Min, Max int

	window int
	next   int64 // page a sequential access would touch next
}

// Window returns the current window size in pages.
//
//lint:allow unusedexport core's tests read an inode's window through it
func (r *Readahead) Window() int { return r.window }

// Access notes a read of page pg and returns the number of pages to read
// ahead beyond the demand fetch. Sequential accesses double the window
// from Min up to Max; the first access and every seek reset it to Min.
func (r *Readahead) Access(pg int64) int {
	if r.Max <= 0 {
		return 0
	}
	switch {
	case r.window == 0 || pg != r.next:
		r.window = r.Min
	default:
		r.window *= 2
	}
	if r.window > r.Max {
		r.window = r.Max
	}
	if r.window < 1 {
		r.window = 1
	}
	r.next = pg + 1
	return r.window
}
