package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func req(page int64) *Request {
	return &Request{Page: page, Offset: 0, Count: pageSize}
}

func TestReqListSortedInsert(t *testing.T) {
	var l reqList
	for _, pg := range []int64{5, 1, 3, 2, 4} {
		l.Insert(req(pg))
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
	for pg := int64(0); pg < 10; pg++ {
		l.Insert(req(pg * 2)) // pages 0,2,4,...18
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
	for pg := int64(0); pg < 100; pg++ {
		scanned := l.Insert(req(pg))
		if scanned != int(pg) {
			t.Fatalf("append scan = %d, want %d (full traversal)", scanned, pg)
		}
	}
}

func TestPopRunCoalescesContiguous(t *testing.T) {
	var l reqList
	for pg := int64(0); pg < 5; pg++ {
		l.Insert(req(pg))
	}
	run, _ := l.PopRun(8192) // wsize 8 KB = 2 pages
	if len(run) != 2 || run[0].Page != 0 || run[1].Page != 1 {
		t.Fatalf("run = %v", run)
	}
	if l.Len() != 3 {
		t.Fatalf("remaining = %d", l.Len())
	}
}

func TestPopRunStopsAtGap(t *testing.T) {
	var l reqList
	l.Insert(req(0))
	l.Insert(req(5)) // gap
	run, _ := l.PopRun(65536)
	if len(run) != 1 || run[0].Page != 0 {
		t.Fatalf("run crossed a gap: %v", run)
	}
}

func TestPopRunStopsAtPartialPage(t *testing.T) {
	var l reqList
	l.Insert(req(0))
	l.Insert(&Request{Page: 1, Offset: 100, Count: 200}) // not byte-contiguous
	run, _ := l.PopRun(65536)
	if len(run) != 1 {
		t.Fatalf("run crossed a byte gap: %v", run)
	}
}

func TestPopRunEmpty(t *testing.T) {
	var l reqList
	run, scanned := l.PopRun(8192)
	if run != nil || scanned != 0 {
		t.Fatalf("empty pop = %v/%d", run, scanned)
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
		for _, pg := range rand.New(rand.NewSource(seed)).Perm(n) {
			l.Insert(req(int64(pg)))
		}
		for i := 1; i < l.Len(); i++ {
			if l.At(i-1).Page >= l.At(i).Page {
				return false
			}
		}
		popped := 0
		for l.Len() > 0 {
			run, _ := l.PopRun(8192)
			if len(run) == 0 || len(run) > 2 {
				return false
			}
			popped += len(run)
		}
		return popped == n
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

// Property: interleaved inserts (some before the front), lookups and run
// pops on the queue-backed list return the same requests and the same
// modeled scan counts as the plain sorted slice.
func TestReqListMatchesSortedSlice(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var l reqList
		var ref refList
		used := map[int64]bool{}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				pg := int64(rng.Intn(200))
				if used[pg] {
					continue
				}
				used[pg] = true
				q := req(pg)
				if l.Insert(q) != ref.insert(q) {
					return false
				}
			case op < 8:
				pg := int64(rng.Intn(200))
				got, gotScan := l.Find(pg)
				i := ref.search(pg)
				var want *Request
				wantScan := i
				if i < len(ref) && ref[i].Page == pg {
					want, wantScan = ref[i], i+1
				}
				if got != want || gotScan != wantScan {
					return false
				}
			default:
				maxBytes := (rng.Intn(8) + 1) * pageSize
				run, scan := l.PopRun(maxBytes)
				wantRun, wantScan := ref.popRun(maxBytes)
				if scan != wantScan || len(run) != len(wantRun) {
					return false
				}
				for i := range run {
					if run[i] != wantRun[i] {
						return false
					}
					delete(used, run[i].Page)
				}
			}
			if l.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
