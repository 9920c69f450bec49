package core

import "repro/internal/sim"

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

// reqBlockLen is the most requests one block of a request list holds.
const reqBlockLen = 64

// reqList is the per-inode request list, "maintained in order of
// increasing page offset" (§3.4). The simulator keeps it as a run of
// blocks of at most reqBlockLen requests each, the blocks in page order,
// so a lookup is two binary searches and an insert shifts one block at
// most, however many pages a random writer has queued. The *modeled*
// cost of each operation — how many entries the 2.4.4 code would have
// traversed — is a request's rank in the whole list, which Find, Insert
// and PopRun return for the caller to charge as virtual CPU time. The
// block arrays, and the slice holding them, come from the simulation's
// records and go back there when they empty.
type reqList struct {
	blocks []reqBlock
	n      int
	// seen is the last search's answer while the list is unchanged:
	// nfs_commit_write's lookup and its insert search for one page.
	seen reqPos
}

// reqBlock is one block of a request list: the entries arr[lo:hi], 1 to
// reqBlockLen of them in page order and all below the next block's, and
// the page of the last, so the search for a block reads only the list's
// own slice. Runs leave the front block by moving lo, so a pop shifts
// nothing; an insert slides the entries back to the array's front when
// they reach its end.
type reqBlock struct {
	last   int64
	lo, hi int
	arr    *[reqBlockLen]reqEntry
}

// reqEntry is one request in a block, beside its page, so the search
// within a block reads the block's own array and not the records.
type reqEntry struct {
	page int64
	r    *Request
}

// entries returns the block's requests.
func (b *reqBlock) entries() []reqEntry { return b.arr[b.lo:b.hi] }

// insert puts e at position i of the block's entries, which number
// fewer than reqBlockLen.
func (b *reqBlock) insert(i int, e reqEntry) {
	if b.hi == reqBlockLen {
		n := copy(b.arr[:], b.arr[b.lo:b.hi])
		clear(b.arr[n:b.hi])
		b.lo, b.hi = 0, n
	}
	i += b.lo
	copy(b.arr[i+1:b.hi+1], b.arr[i:b.hi])
	b.arr[i] = e
	b.hi++
	b.last = b.arr[b.hi-1].page
}

// reqPos is where search found a page: block b, position i, and rank.
type reqPos struct {
	pg         int64
	b, i, rank int32
	ok         bool
}

// Len returns the number of queued requests.
func (l *reqList) Len() int { return l.n }

// Empty reports whether the list has no requests.
func (l *reqList) Empty() bool { return l.n == 0 }

// search locates the first request with page >= pg: block b, position i
// within its entries, and its rank in the list. Past the last request,
// b is len(l.blocks) and the rank is l.Len().
func (l *reqList) search(pg int64) (b, i, rank int) {
	if l.seen.ok && l.seen.pg == pg {
		return int(l.seen.b), int(l.seen.i), int(l.seen.rank)
	}
	b, i, rank = l.locate(pg)
	l.seen = reqPos{pg, int32(b), int32(i), int32(rank), true}
	return b, i, rank
}

// locate is search without the cache.
func (l *reqList) locate(pg int64) (b, i, rank int) {
	// Each search halves its span with a conditional add rather than a
	// branch: random pages would mispredict every other branch.
	n := len(l.blocks)
	for n > 1 {
		half := n >> 1
		if l.blocks[b+half-1].last < pg {
			b += half
		}
		n -= half
	}
	if n == 1 && l.blocks[b].last < pg {
		b++
	}
	if b == len(l.blocks) {
		return b, 0, l.n
	}
	es := l.blocks[b].entries()
	for n = len(es); n > 1; n -= n >> 1 {
		if es[i+n>>1-1].page < pg {
			i += n >> 1
		}
	}
	if es[i].page < pg {
		i++
	}
	return b, i, l.before(b) + i
}

// before returns how many requests the blocks ahead of block b hold.
func (l *reqList) before(b int) int {
	n := 0
	for _, blk := range l.blocks[:b] {
		n += blk.hi - blk.lo
	}
	return n
}

// Find returns the request covering page pg, if any, plus the number of
// entries _nfs_find_request would have traversed to learn the answer:
// the scan walks the sorted list from the head until it reaches a page
// >= pg, so a sequential workload writing past the end traverses the
// entire list and finds nothing — the §3.4 pathology.
func (l *reqList) Find(pg int64) (req *Request, scanned int) {
	b, i, rank := l.search(pg)
	if b < len(l.blocks) {
		if e := l.blocks[b].entries()[i]; e.page == pg {
			return e.r, rank + 1
		}
	}
	return nil, rank
}

// Insert adds a request, whose page the list does not hold, in sorted
// position and returns the entries the 2.4.4 insertion scan would have
// traversed. A full block splits in two; a request past the end of a
// full last block opens a new block, so a sequential writer fills blocks
// whole.
func (l *reqList) Insert(r *Request, recs *records) (scanned int) {
	e := reqEntry{r.Page, r}
	b, i, rank := l.search(e.page)
	l.n++
	l.seen.ok = false
	if b == len(l.blocks) {
		if b == 0 || l.blocks[b-1].hi-l.blocks[b-1].lo == reqBlockLen {
			l.insertBlock(b, recs)
			l.blocks[b].insert(0, e)
			return rank
		}
		b--
		i = l.blocks[b].hi - l.blocks[b].lo
	}
	if blk := &l.blocks[b]; blk.hi-blk.lo == reqBlockLen {
		const half = reqBlockLen / 2
		l.insertBlock(b+1, recs)
		blk = &l.blocks[b]
		upper := &l.blocks[b+1]
		upper.hi = copy(upper.arr[:], blk.arr[half:])
		upper.last = blk.last
		clear(blk.arr[half:])
		blk.hi, blk.last = half, blk.arr[half-1].page
		if i > half {
			b, i = b+1, i-half
		}
	}
	l.blocks[b].insert(i, e)
	return rank
}

// insertBlock puts an empty block at index b of the block slice, which
// an empty list first takes from recs.
func (l *reqList) insertBlock(b int, recs *records) {
	if cap(l.blocks) == 0 {
		l.blocks, _ = take(&recs.lists)
	}
	arr, ok := take(&recs.blocks)
	if !ok {
		arr = new([reqBlockLen]reqEntry)
	}
	l.blocks = append(l.blocks, reqBlock{})
	copy(l.blocks[b+1:], l.blocks[b:])
	l.blocks[b] = reqBlock{arr: arr}
}

// Front returns the first (lowest-page) request, or nil.
func (l *reqList) Front() *Request {
	if l.n == 0 {
		return nil
	}
	return l.blocks[0].arr[l.blocks[0].lo].r
}

// PopRun removes the longest byte-contiguous run of requests from the
// front of the list, capped at maxBytes total — this is the "coalesced
// into wsize chunks just before the client generates write RPCs" step of
// §3.4 — and hands the popped records, and the blocks they empty, back
// to recs. It returns the run's first byte offset, its page and byte
// counts, and the number of entries the coalescing scan examined. This
// is the only place a request leaves the list.
func (l *reqList) PopRun(maxBytes int, recs *records) (start int64, pages, total, scanned int) {
	if l.n == 0 {
		return 0, 0, 0, 0
	}
	first := l.Front()
	start, prev := first.Start(), first
walk:
	for b := range l.blocks {
		for _, e := range l.blocks[b].entries() {
			if total+e.r.Count > maxBytes || pages > 0 && prev.End() != e.r.Start() {
				break walk
			}
			total += e.r.Count
			pages++
			prev = e.r
		}
	}
	if pages == 0 {
		// A single request larger than maxBytes cannot happen (requests
		// are at most a page and wsize >= a page), but guard anyway.
		pages, total = 1, first.Count
	}
	l.drop(pages, recs)
	return start, pages, total, pages + 1
}

// drop removes the first k requests, handing them to recs' free list in
// order. A block it empties goes back to recs, and so does the block
// slice once the list drains.
func (l *reqList) drop(k int, recs *records) {
	l.n -= k
	l.seen.ok = false
	gone := 0
	for k > 0 {
		blk := &l.blocks[gone]
		es := blk.entries()[:min(k, blk.hi-blk.lo)]
		for _, e := range es {
			recs.requests.put(e.r)
		}
		clear(es)
		k -= len(es)
		if blk.lo += len(es); blk.lo == blk.hi {
			recs.blocks = append(recs.blocks, blk.arr)
			gone++
		}
	}
	if gone == 0 {
		return
	}
	live := copy(l.blocks, l.blocks[gone:])
	clear(l.blocks[live:])
	l.blocks = l.blocks[:live]
	if live == 0 {
		recs.lists = append(recs.lists, l.blocks)
		l.blocks = nil
	}
}

// requestBlock is how many Request records one free-list refill
// allocates: a single backing array keeps them cache-adjacent.
const requestBlock = 128

// records is core's stock of recycled records (sim.Stock): one per
// simulation, shared by all its clients and handed on to the next
// simulation by Close, as 2.4 took every mount's nfs_page from one slab
// cache. A record in it is bound to no client: newWriteCall and
// newReadCall bind the taker, and done unbinds it again. The rest is
// empty storage an inode's structures grow into, so a list filling
// again, or a new inode's, does not regrow from nothing: blocks holds
// request-list block arrays, lists the slices that hold
// a list's blocks, and bits the all-zero word arrays of page sets.
type records struct {
	requests requestPool
	blocks   []*[reqBlockLen]reqEntry
	lists    [][]reqBlock
	bits     [][]uint64
	writes   []*writeCall
	reads    []*readCall
}

var recordStock = sim.NewStock[records]()

// take pops the last item of a free list; ok is false, and x the zero
// T, when the list is empty.
func take[T any](free *[]T) (x T, ok bool) {
	n := len(*free) - 1
	if n < 0 {
		return x, false
	}
	x = (*free)[n]
	(*free)[n] = *new(T)
	*free = (*free)[:n]
	return x, true
}

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
