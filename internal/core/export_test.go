package core

import (
	"math/bits"

	"repro/internal/sim"
)

// AttrCacheLen returns the number of cached attribute entries (test
// accessor).
func (c *Client) AttrCacheLen() int { return len(c.attrCache) }

// SetFlushdWatermark sets how many dirty pages of a file wake flushd.
func (c *Client) SetFlushdWatermark(pages int) { c.flushdWatermark = pages }

// MountRequests returns the outstanding page-request count for the mount.
func (c *Client) MountRequests() int { return c.mountRequests }

// OpenInodes returns how many inodes the client currently tracks — the
// set flushd's pickFlushable/queuedAnywhere scans. Closed files leave it
// (for tests pinning the last-close release).
func (c *Client) OpenInodes() int { return len(c.inodes) }

// CachedPages returns how many resident pages the inode holds — pages
// filled by READ replies or dirtied by writes (for tests).
func (ino *Inode) CachedPages() int { return ino.resident.count() }

// ResidentSpans returns how many disjoint page runs the resident set
// holds (for tests: sequential access must coalesce into one span, random
// access fragments until coverage completes).
func (ino *Inode) ResidentSpans() int { return ino.resident.spans() }

// ReadaheadWindow returns the inode's current readahead window in pages
// (for tests and experiments).
func (ino *Inode) ReadaheadWindow() int { return ino.ra.Window() }

// WriteBack sends every queued request of the file and waits for their
// replies, without the COMMIT that Flush adds, so the acked bytes stay
// UNSTABLE.
func (f *File) WriteBack(p *sim.Proc) { f.c.flushInodeSync(p, f.ino) }

// Inode returns the file's client-side inode.
func (f *File) Inode() *Inode { return f.ino }

// At returns the i'th request.
func (l *reqList) At(i int) *Request {
	for _, blk := range l.blocks {
		if es := blk.entries(); i < len(es) {
			return es[i].r
		} else {
			i -= len(es)
		}
	}
	panic("core: request index out of range")
}

// count returns how many pages the set holds.
func (s *pageSet) count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// spans returns how many maximal runs of consecutive pages the set
// holds: a run starts at each set bit whose page below is not set.
func (s *pageSet) spans() int {
	n := 0
	var below uint64 // the top bit of the previous word, moved to bit 0
	for _, w := range s.words {
		n += bits.OnesCount64(w &^ (w<<1 | below))
		below = w >> 63
	}
	return n
}

// RPCs returns how many calls of NFS procedure proc the client's
// transport has issued.
func (c *Client) RPCs(proc uint32) int64 { return c.tr.Stats().ByProc[proc] }
