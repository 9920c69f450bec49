package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: a page set answers like a page-keyed map under random adds
// and removes of page runs, clears and releases, with runs that start
// and end inside words and cross word boundaries; its count and span
// count match the map's; and every word array it gives back to the
// records is all zero, so the next set that takes one starts empty.
func TestPageSetMatchesMap(t *testing.T) {
	const pages = 1500
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var recs records
		var s pageSet
		ref := map[int64]bool{}
		for step := 0; step < 300; step++ {
			lo := int64(rng.Intn(pages))
			hi := lo + int64(rng.Intn(200))
			switch op := rng.Intn(20); {
			case op < 11:
				s.add(lo, hi, &recs)
				for pg := lo; pg < hi; pg++ {
					ref[pg] = true
				}
			case op < 18:
				s.remove(lo, hi)
				for pg := lo; pg < hi; pg++ {
					delete(ref, pg)
				}
			case op < 19:
				s.clear()
				clear(ref)
			default:
				s.release(&recs)
				clear(ref)
			}
			spans := 0
			for pg := int64(0); pg < pages+200; pg++ {
				if s.has(pg) != ref[pg] {
					return false
				}
				if ref[pg] && !ref[pg-1] {
					spans++
				}
			}
			if s.count() != len(ref) || s.spans() != spans {
				return false
			}
		}
		s.release(&recs)
		for _, w := range recs.bits {
			for _, x := range w[:cap(w)] {
				if x != 0 {
					return false
				}
			}
		}
		return len(recs.bits) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// A request list and a page set that fill and empty again take all
// their storage from the records: once the records are warm, a cycle
// of random inserts into a new list, pops that drain it, and a new page
// set grown to the highest page and then released allocates nothing.
func TestListAndPageSetStorageComesFromRecords(t *testing.T) {
	var recs records
	order := rand.New(rand.NewSource(1)).Perm(3000)
	cycle := func() {
		var l reqList
		var s pageSet
		for _, pg := range order {
			l.Insert(recs.requests.get(int64(pg), 0, pageSize, 0), &recs)
			s.add(int64(pg), int64(pg)+1, &recs)
		}
		for l.Len() > 0 {
			l.PopRun(8*pageSize, &recs)
		}
		s.release(&recs)
	}
	cycle()
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Fatalf("a warm cycle of 3,000 random pages made %.1f allocations", n)
	}
}
