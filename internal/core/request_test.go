package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mm"
	"repro/internal/sim"
)

func req(page int64) *Request {
	return &Request{Page: page, Offset: 0, Count: pageSize}
}

func TestReqListSortedInsert(t *testing.T) {
	var l reqList
	var recs records
	for _, pg := range []int64{5, 1, 3, 2, 4} {
		l.Insert(req(pg), &recs)
	}
	if l.Len() != 5 {
		t.Fatalf("len = %d", l.Len())
	}
	for i := 0; i < 5; i++ {
		if l.At(i).Page != int64(i+1) {
			t.Fatalf("list not sorted: pos %d has page %d", i, l.At(i).Page)
		}
	}
}

func TestReqListFind(t *testing.T) {
	var l reqList
	var recs records
	for pg := int64(0); pg < 10; pg++ {
		l.Insert(req(pg*2), &recs) // pages 0,2,4,...18
	}
	r, scanned := l.Find(6)
	if r == nil || r.Page != 6 {
		t.Fatalf("Find(6) = %v", r)
	}
	if scanned != 4 { // walks entries 0,2,4 then hits 6
		t.Fatalf("scanned = %d, want 4", scanned)
	}
	r, scanned = l.Find(7)
	if r != nil {
		t.Fatal("Find(7) found a request that does not exist")
	}
	if scanned != 4 {
		t.Fatalf("miss scanned = %d", scanned)
	}
	// Sequential-append pathology: a miss past the end scans everything.
	_, scanned = l.Find(100)
	if scanned != l.Len() {
		t.Fatalf("past-end miss scanned %d of %d", scanned, l.Len())
	}
}

func TestReqListInsertScanCost(t *testing.T) {
	var l reqList
	var recs records
	for pg := int64(0); pg < 100; pg++ {
		scanned := l.Insert(req(pg), &recs)
		if scanned != int(pg) {
			t.Fatalf("append scan = %d, want %d (full traversal)", scanned, pg)
		}
	}
}

func TestPopRunCoalescesContiguous(t *testing.T) {
	var l reqList
	var recs records
	for pg := int64(0); pg < 5; pg++ {
		l.Insert(req(pg), &recs)
	}
	start, pages, total, _ := l.PopRun(8192, &recs) // wsize 8 KB = 2 pages
	if start != 0 || pages != 2 || total != 8192 {
		t.Fatalf("run = start %d, %d pages, %d bytes", start, pages, total)
	}
	if free := recs.requests.free; len(free) != 2 || free[0].Page != 0 || free[1].Page != 1 {
		t.Fatalf("free list after the pop = %v", free)
	}
	if l.Len() != 3 {
		t.Fatalf("remaining = %d", l.Len())
	}
}

func TestPopRunStopsAtGap(t *testing.T) {
	var l reqList
	var recs records
	l.Insert(req(0), &recs)
	l.Insert(req(5), &recs) // gap
	start, pages, _, _ := l.PopRun(65536, &recs)
	if pages != 1 || start != 0 {
		t.Fatalf("run crossed a gap: start %d, %d pages", start, pages)
	}
}

func TestPopRunStopsAtPartialPage(t *testing.T) {
	var l reqList
	var recs records
	l.Insert(req(0), &recs)
	l.Insert(&Request{Page: 1, Offset: 100, Count: 200}, &recs) // not byte-contiguous
	_, pages, total, _ := l.PopRun(65536, &recs)
	if pages != 1 || total != pageSize {
		t.Fatalf("run crossed a byte gap: %d pages, %d bytes", pages, total)
	}
}

func TestPopRunEmpty(t *testing.T) {
	var l reqList
	var recs records
	start, pages, total, scanned := l.PopRun(8192, &recs)
	if start != 0 || pages != 0 || total != 0 || scanned != 0 || len(recs.requests.free) != 0 {
		t.Fatalf("empty pop = %d/%d/%d/%d", start, pages, total, scanned)
	}
}

func TestRequestSpanHelpers(t *testing.T) {
	r := &Request{Page: 2, Offset: 100, Count: 50}
	if r.Start() != 2*4096+100 || r.End() != 2*4096+150 {
		t.Fatalf("span = [%d,%d)", r.Start(), r.End())
	}
}

// Property: after inserting a random permutation of pages, the list is
// sorted and PopRun drains it completely in contiguous chunks.
func TestReqListProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		var l reqList
		var recs records
		for _, pg := range rand.New(rand.NewSource(seed)).Perm(n) {
			l.Insert(req(int64(pg)), &recs)
		}
		for i := 1; i < l.Len(); i++ {
			if l.At(i-1).Page >= l.At(i).Page {
				return false
			}
		}
		popped := 0
		for l.Len() > 0 {
			_, pages, _, _ := l.PopRun(8192, &recs)
			if pages == 0 || pages > 2 {
				return false
			}
			popped += pages
		}
		return popped == n && len(recs.requests.free) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refList is the plain sorted slice reqList replaced: every operation
// returns the scan count the 2.4.4 list walk would have paid.
type refList []*Request

func (r *refList) search(pg int64) int {
	i := 0
	for i < len(*r) && (*r)[i].Page < pg {
		i++
	}
	return i
}

func (r *refList) insert(q *Request) int {
	i := r.search(q.Page)
	*r = append(*r, nil)
	copy((*r)[i+1:], (*r)[i:])
	(*r)[i] = q
	return i
}

func (r *refList) popRun(maxBytes int) ([]*Request, int) {
	if len(*r) == 0 {
		return nil, 0
	}
	total, n := 0, 0
	for n < len(*r) && total+(*r)[n].Count <= maxBytes && (n == 0 || (*r)[n-1].End() == (*r)[n].Start()) {
		total += (*r)[n].Count
		n++
	}
	n = max(n, 1)
	run := append([]*Request(nil), (*r)[:n]...)
	*r = (*r)[n:]
	return run, n + 1
}

// Property: interleaved inserts, lookups and run pops on the block list
// return the same requests and the same modeled scan counts as the
// plain sorted slice, over lists of thousands of pages, and Find returns
// the same request for each page as a page-keyed map does. Half the
// inserts follow a lookup of their page, whose search they reuse, and
// some of those a pop in between, which must void it. The runs
// cover what the blocks add: splits of full blocks, pops that empty
// whole blocks and runs that cross a block boundary, and inserts before
// the front. Every emptied block, and the block slice of the drained
// list, goes back to the records cleared.
func TestReqListMatchesSortedSlice(t *testing.T) {
	const pagesMax = 6000
	var splits, blockDrops, crossings, frontInserts int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var l reqList
		var ref refList
		var recs records
		// hash is a page-keyed index kept the way a fix-2 hash table
		// beside the list would be: set on every insert, cleared for
		// every member of a popped run. Find must return what it holds.
		hash := map[int64]*Request{}
		check := func(pg int64) bool {
			got, gotScan := l.Find(pg)
			i := ref.search(pg)
			want, wantScan := hash[pg], i
			if want != nil {
				wantScan = i + 1
			}
			return got == want && gotScan == wantScan
		}
		// pop takes a run off the front of both lists and checks it.
		pop := func() bool {
			maxBytes := (rng.Intn(96) + 1) * pageSize
			blocks, firstBlock := len(l.blocks), 0
			if blocks > 0 {
				firstBlock = len(l.blocks[0].entries())
			}
			start, pages, total, scan := l.PopRun(maxBytes, &recs)
			wantRun, wantScan := ref.popRun(maxBytes)
			if scan != wantScan || pages != len(wantRun) {
				return false
			}
			if pages == 0 {
				return true
			}
			if len(l.blocks) < blocks {
				blockDrops++
			}
			if pages > firstBlock {
				crossings++
			}
			wantTotal := 0
			for _, r := range wantRun {
				wantTotal += r.Count
			}
			if start != wantRun[0].Start() || total != wantTotal {
				return false
			}
			// The popped records went to the free list, in order.
			for i, r := range recs.requests.free[len(recs.requests.free)-pages:] {
				if r != wantRun[i] {
					return false
				}
				delete(hash, r.Page)
			}
			return true
		}
		for step := 0; step < 8000; step++ {
			// The first half grows the list to thousands of pages; the
			// second half mostly drains it.
			inserts := 7
			if step >= 4000 {
				inserts = 3
			}
			switch op := rng.Intn(10); {
			case op < inserts:
				pg := int64(rng.Intn(pagesMax))
				if hash[pg] != nil {
					continue
				}
				// Like nfs_commit_write, look the page up before the
				// insert, and sometimes let a run leave in between.
				if rng.Intn(2) == 0 {
					if !check(pg) || rng.Intn(4) == 0 && !pop() {
						return false
					}
				}
				if l.Len() > 0 && pg < l.Front().Page {
					frontInserts++
				}
				blocks := len(l.blocks)
				q := req(pg)
				hash[pg] = q
				if l.Insert(q, &recs) != ref.insert(q) {
					return false
				}
				if len(l.blocks) > blocks && ref[len(ref)-1] != q {
					splits++
				}
				if !check(pg) {
					return false
				}
			case op < 8:
				if !check(int64(rng.Intn(pagesMax))) {
					return false
				}
			default:
				if !pop() {
					return false
				}
			}
			if l.Len() != len(ref) || l.Len() != len(hash) || !sameBlocks(&l, ref) {
				return false
			}
			if step%1000 == 999 {
				for pg := int64(0); pg < pagesMax; pg++ {
					if !check(pg) {
						return false
					}
				}
			}
		}
		for l.Len() > 0 {
			l.PopRun(1<<30, &recs)
		}
		if l.blocks != nil || len(recs.lists) != 1 || len(recs.lists[0]) != 0 {
			return false
		}
		if slices.ContainsFunc(recs.lists[0][:cap(recs.lists[0])], func(b reqBlock) bool { return b != reqBlock{} }) {
			return false
		}
		for _, arr := range recs.blocks {
			if slices.ContainsFunc(arr[:], func(e reqEntry) bool { return e != reqEntry{} }) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
	if splits == 0 || blockDrops == 0 || crossings == 0 || frontInserts == 0 {
		t.Fatalf("the runs made %d splits, %d whole-block drops, %d block-crossing runs and %d inserts before the front; want some of each",
			splits, blockDrops, crossings, frontInserts)
	}
	t.Logf("%d splits, %d whole-block drops, %d block-crossing runs, %d inserts before the front", splits, blockDrops, crossings, frontInserts)
}

// sameBlocks reports whether l's blocks, read in order, are ref, each
// entry beside its request's page, and whether each block holds at
// least one request, the page of its last, and zero entries outside its
// window.
func sameBlocks(l *reqList, ref refList) bool {
	for _, blk := range l.blocks {
		es := blk.entries()
		if n := len(es); n == 0 || blk.last != es[n-1].page {
			return false
		}
		for i := range blk.arr {
			if (i < blk.lo || i >= blk.hi) && blk.arr[i] != (reqEntry{}) {
				return false
			}
		}
		for _, e := range es {
			if len(ref) == 0 || e.r != ref[0] || e.page != e.r.Page {
				return false
			}
			ref = ref[1:]
		}
	}
	return len(ref) == 0
}

// BenchmarkCommitPage measures commitPage, the two request lookups and
// the sorted insert of nfs_commit_write, at request-list lengths 16, 256
// and 4096 under both index policies. In the sequential case each op is
// a sequential writer's next page, a miss past the end of the list,
// followed by the coalesce that pops the front page, so the list keeps
// its length. In the random case the ops write the n pages of a shuffled
// order, a miss at a random position in the list each, and the list is
// drained one page per pop whenever it reaches n, so each op is one
// random insert plus one pop. Every popped record returns to the
// simulation's record stock. Only the virtual CPU charge differs between
// the policies; the host work is the same.
func BenchmarkCommitPage(b *testing.B) {
	for _, order := range []string{"sequential", "random"} {
		for _, policy := range []IndexPolicy{IndexLinearList, IndexHashTable} {
			for _, n := range []int{16, 256, 4096} {
				if order == "random" && n == 16 {
					continue
				}
				b.Run(fmt.Sprintf("%s/%v/%d", order, policy, n), func(b *testing.B) {
					benchCommitPage(b, order == "random", policy, n)
				})
			}
		}
	}
}

func benchCommitPage(b *testing.B, random bool, policy IndexPolicy, n int) {
	s := sim.New(1)
	defer s.Close()
	cfg := EnhancedConfig()
	cfg.IndexPolicy = policy
	c := NewClient(s, s.NewCPUPool(1), s.NewMutex("bkl"), mm.New(s, mm.DefaultDirtyLimit), nil, cfg)
	c.flushdWatermark = n + 1 // flushd stays asleep
	ino := c.Open().ino
	order := rand.New(rand.NewSource(1)).Perm(n)
	want := n
	s.Go("writer", func(p *sim.Proc) {
		if random {
			want = b.N % n
			for pg := range n { // warm the stock's blocks and the page set
				c.commitPage(p, ino, int64(pg), 0, pageSize)
			}
			for ino.reqs.Len() > 0 {
				ino.reqs.PopRun(pageSize, c.recs)
			}
		} else {
			for pg := 0; pg < n; pg++ {
				c.commitPage(p, ino, int64(pg), 0, pageSize)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !random {
				c.commitPage(p, ino, int64(n+i), 0, pageSize)
				ino.reqs.PopRun(pageSize, c.recs)
				continue
			}
			c.commitPage(p, ino, int64(order[i%n]), 0, pageSize)
			if ino.reqs.Len() == n {
				for ino.reqs.Len() > 0 {
					ino.reqs.PopRun(pageSize, c.recs)
				}
			}
		}
		b.StopTimer()
	})
	s.Run(0)
	if ino.reqs.Len() != want {
		b.Fatalf("list length %d, want %d", ino.reqs.Len(), want)
	}
}
