package core

import (
	"sort"

	"repro/internal/fifo"
	"repro/internal/sim"
)

// Request is one page-sized pending write (struct nfs_page in the
// kernel): the byte range [Offset, Offset+Count) within page Page of one
// inode, not yet acknowledged by the server.
type Request struct {
	// Page is the page index within the file.
	Page int64
	// Offset is the byte offset within the page.
	Offset int
	// Count is the number of dirty bytes.
	Count int
	// CreatedAt is when the request entered the list (for flushd aging).
	CreatedAt sim.Time
}

// Start returns the request's absolute byte offset in the file.
func (r *Request) Start() int64 { return r.Page*pageSize + int64(r.Offset) }

// End returns the absolute byte offset one past the request's data.
func (r *Request) End() int64 { return r.Start() + int64(r.Count) }

// widen grows the request to the union of its bytes and the overlapping
// or adjacent span [offset, offset+count) of the same page, and returns
// how many bytes it grew by.
func (r *Request) widen(offset, count int) int {
	before := r.Count
	if offset < r.Offset {
		r.Count += r.Offset - offset
		r.Offset = offset
	}
	if end := offset + count; end > r.Offset+r.Count {
		r.Count = end - r.Offset
	}
	return r.Count - before
}

const pageSize = 4096

// reqList is the per-inode request list, "maintained in order of
// increasing page offset" (§3.4). The Go implementation uses binary
// search so the simulator itself stays fast; the *modeled* cost of each
// operation — how many entries the 2.4.4 code would have traversed — is
// returned to the caller, which charges it as virtual CPU time. Runs
// leave from the front, so the list is a fifo.Queue: PopRun drops a run
// without shifting the requests behind it.
type reqList struct {
	q fifo.Queue[*Request]
}

// Len returns the number of queued requests.
func (l *reqList) Len() int { return l.q.Len() }

// Empty reports whether the list has no requests.
func (l *reqList) Empty() bool { return l.q.Len() == 0 }

// search returns the index of the first request with page >= pg.
func (l *reqList) search(pg int64) int {
	items := l.q.Items()
	return sort.Search(len(items), func(i int) bool { return items[i].Page >= pg })
}

// Find returns the request covering page pg, if any, plus the number of
// entries _nfs_find_request would have traversed to learn the answer:
// the scan walks the sorted list from the head until it reaches a page
// >= pg, so a sequential workload writing past the end traverses the
// entire list and finds nothing — the §3.4 pathology.
func (l *reqList) Find(pg int64) (req *Request, scanned int) {
	i := l.search(pg)
	scanned = i
	if items := l.q.Items(); i < len(items) && items[i].Page == pg {
		return items[i], scanned + 1
	}
	return nil, scanned
}

// Insert adds a request in sorted position and returns the entries the
// 2.4.4 insertion scan would have traversed.
func (l *reqList) Insert(r *Request) (scanned int) {
	i := l.search(r.Page)
	l.q.Push(r)
	items := l.q.Items()
	copy(items[i+1:], items[i:len(items)-1])
	items[i] = r
	return i
}

// Front returns the first (lowest-page) request, or nil.
func (l *reqList) Front() *Request {
	if l.q.Len() == 0 {
		return nil
	}
	return l.q.Items()[0]
}

// PopRun removes the longest byte-contiguous run of requests from the
// front of the list, capped at maxBytes total — this is the "coalesced
// into wsize chunks just before the client generates write RPCs" step of
// §3.4 — and hands the popped records back to free. It returns the run's
// first byte offset, its page and byte counts, and the number of entries
// the coalescing scan examined. This is the only place a request leaves
// the list.
func (l *reqList) PopRun(maxBytes int, free *requestPool) (start int64, pages, total, scanned int) {
	items := l.q.Items()
	if len(items) == 0 {
		return 0, 0, 0, 0
	}
	for pages < len(items) {
		r := items[pages]
		if total+r.Count > maxBytes {
			break
		}
		if pages > 0 && items[pages-1].End() != r.Start() {
			break
		}
		total += r.Count
		pages++
	}
	if pages == 0 {
		// A single request larger than maxBytes cannot happen (requests
		// are at most a page and wsize >= a page), but guard anyway.
		pages, total = 1, items[0].Count
	}
	start = items[0].Start()
	for _, r := range items[:pages] {
		free.put(r)
	}
	l.q.Drop(pages)
	return start, pages, total, pages + 1
}

// requestBlock is how many Request records one free-list refill
// allocates: a single backing array keeps them cache-adjacent.
const requestBlock = 128

// records is core's stock of recycled records (sim.Stock): one per
// simulation, shared by all its clients and handed on to the next
// simulation by Close, as 2.4 took every mount's nfs_page from one slab
// cache. A record in it is bound to no client: newWriteCall and
// newReadCall bind the taker, and done unbinds it again. lists holds the
// backing arrays of drained request lists, so a list filling again, or
// a new inode's, does not regrow one from empty.
type records struct {
	requests requestPool
	lists    fifo.Spares[*Request]
	writes   []*writeCall
	reads    []*readCall
}

var recordStock = sim.NewStock[records]()

// requestPool is a free list of Request records, the model's nfs_page
// slab cache. It refills in blocks, so once warm it queues pages
// without allocating.
type requestPool struct {
	free []*Request
}

// get returns a record for the span [offset, offset+count) of page,
// created at now.
func (rp *requestPool) get(page int64, offset, count int, now sim.Time) *Request {
	if len(rp.free) == 0 {
		block := make([]Request, requestBlock)
		for i := range block {
			rp.free = append(rp.free, &block[i])
		}
	}
	r := rp.free[len(rp.free)-1]
	rp.free = rp.free[:len(rp.free)-1]
	*r = Request{Page: page, Offset: offset, Count: count, CreatedAt: now}
	return r
}

// put takes back a record that has left its request list.
func (rp *requestPool) put(r *Request) { rp.free = append(rp.free, r) }
