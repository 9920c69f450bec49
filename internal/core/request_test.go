package core

import (
	"fmt"
	"math/rand"
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
	var free requestPool
	start, pages, total, _ := l.PopRun(8192, &free) // wsize 8 KB = 2 pages
	if start != 0 || pages != 2 || total != 8192 {
		t.Fatalf("run = start %d, %d pages, %d bytes", start, pages, total)
	}
	if len(free.free) != 2 || free.free[0].Page != 0 || free.free[1].Page != 1 {
		t.Fatalf("free list after the pop = %v", free.free)
	}
	if l.Len() != 3 {
		t.Fatalf("remaining = %d", l.Len())
	}
}

func TestPopRunStopsAtGap(t *testing.T) {
	var l reqList
	l.Insert(req(0))
	l.Insert(req(5)) // gap
	start, pages, _, _ := l.PopRun(65536, &requestPool{})
	if pages != 1 || start != 0 {
		t.Fatalf("run crossed a gap: start %d, %d pages", start, pages)
	}
}

func TestPopRunStopsAtPartialPage(t *testing.T) {
	var l reqList
	l.Insert(req(0))
	l.Insert(&Request{Page: 1, Offset: 100, Count: 200}) // not byte-contiguous
	_, pages, total, _ := l.PopRun(65536, &requestPool{})
	if pages != 1 || total != pageSize {
		t.Fatalf("run crossed a byte gap: %d pages, %d bytes", pages, total)
	}
}

func TestPopRunEmpty(t *testing.T) {
	var l reqList
	var free requestPool
	start, pages, total, scanned := l.PopRun(8192, &free)
	if start != 0 || pages != 0 || total != 0 || scanned != 0 || len(free.free) != 0 {
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
		for _, pg := range rand.New(rand.NewSource(seed)).Perm(n) {
			l.Insert(req(int64(pg)))
		}
		for i := 1; i < l.Len(); i++ {
			if l.At(i-1).Page >= l.At(i).Page {
				return false
			}
		}
		var free requestPool
		popped := 0
		for l.Len() > 0 {
			_, pages, _, _ := l.PopRun(8192, &free)
			if pages == 0 || pages > 2 {
				return false
			}
			popped += pages
		}
		return popped == n && len(free.free) == n
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
// modeled scan counts as the plain sorted slice, and after every step
// Find returns the same request for each page as a page-keyed map does.
func TestReqListMatchesSortedSlice(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var l reqList
		var ref refList
		var free requestPool
		// hash is a page-keyed index kept the way a fix-2 hash table
		// beside the list would be: set on every insert, cleared for
		// every member of a popped run. Find must return what it holds.
		hash := map[int64]*Request{}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 5:
				pg := int64(rng.Intn(200))
				if hash[pg] != nil {
					continue
				}
				q := req(pg)
				hash[pg] = q
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
				start, pages, total, scan := l.PopRun(maxBytes, &free)
				wantRun, wantScan := ref.popRun(maxBytes)
				if scan != wantScan || pages != len(wantRun) {
					return false
				}
				if pages == 0 {
					break
				}
				wantTotal := 0
				for _, r := range wantRun {
					wantTotal += r.Count
				}
				if start != wantRun[0].Start() || total != wantTotal {
					return false
				}
				// The popped records went to the free list, in order.
				for i, r := range free.free[len(free.free)-pages:] {
					if r != wantRun[i] {
						return false
					}
					delete(hash, r.Page)
				}
			}
			if l.Len() != len(ref) || l.Len() != len(hash) {
				return false
			}
			for pg := int64(0); pg < 200; pg++ {
				if got, _ := l.Find(pg); got != hash[pg] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCommitPage measures commitPage, the two request lookups and
// the sorted insert of nfs_commit_write, at request-list lengths 16, 256
// and 4096 under both index policies. Each op is a sequential writer's
// next page, a miss past the end of the list, followed by the coalesce
// that pops the front page, so the list keeps its length and every
// popped record returns to the simulation's record stock. Only the virtual CPU
// charge differs between the policies; the host work is the same.
func BenchmarkCommitPage(b *testing.B) {
	for _, policy := range []IndexPolicy{IndexLinearList, IndexHashTable} {
		for _, n := range []int{16, 256, 4096} {
			b.Run(fmt.Sprintf("%v/%d", policy, n), func(b *testing.B) {
				s := sim.New(1)
				defer s.Close()
				cfg := EnhancedConfig()
				cfg.IndexPolicy = policy
				c := NewClient(s, s.NewCPUPool(1), s.NewMutex("bkl"), mm.New(s, mm.DefaultDirtyLimit), nil, cfg)
				c.flushdWatermark = n + 1 // flushd stays asleep
				ino := c.Open().ino
				s.Go("writer", func(p *sim.Proc) {
					for pg := 0; pg < n; pg++ {
						c.commitPage(p, ino, int64(pg), 0, pageSize)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.commitPage(p, ino, int64(n+i), 0, pageSize)
						ino.reqs.PopRun(pageSize, &c.recs.requests)
					}
					b.StopTimer()
				})
				s.Run(0)
				if ino.reqs.Len() != n {
					b.Fatalf("list length %d, want %d", ino.reqs.Len(), n)
				}
			})
		}
	}
}
