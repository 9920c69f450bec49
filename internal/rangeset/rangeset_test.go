package rangeset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddAndContains(t *testing.T) {
	var s Set
	s.Add(0, 10)
	s.Add(20, 30)
	if !s.Contains(0, 10) || !s.Contains(5, 8) {
		t.Fatal("missing added range")
	}
	if s.Contains(0, 11) || s.Contains(10, 20) || s.Contains(15, 16) {
		t.Fatal("contains bytes never added")
	}
	if s.Total() != 20 || s.Spans() != 2 {
		t.Fatalf("total=%d spans=%d", s.Total(), s.Spans())
	}
}

func TestMergeAdjacent(t *testing.T) {
	var s Set
	s.Add(0, 10)
	s.Add(10, 20) // adjacent: must merge
	if s.Spans() != 1 || !s.Contains(0, 20) {
		t.Fatalf("adjacent ranges not merged: %v", s.String())
	}
}

func TestMergeOverlapping(t *testing.T) {
	var s Set
	s.Add(0, 10)
	s.Add(5, 15)
	s.Add(30, 40)
	s.Add(12, 32) // bridges two ranges
	if s.Spans() != 1 || s.Total() != 40 {
		t.Fatalf("overlap merge wrong: %v", s.String())
	}
}

func TestAddContained(t *testing.T) {
	var s Set
	s.Add(0, 100)
	s.Add(10, 20)
	if s.Spans() != 1 || s.Total() != 100 {
		t.Fatalf("contained add changed set: %v", s.String())
	}
}

func TestEmptyAndInvertedIgnored(t *testing.T) {
	var s Set
	s.Add(5, 5)
	s.Add(10, 3)
	if s.Spans() != 0 || s.Total() != 0 {
		t.Fatalf("degenerate adds changed set: %v", s.String())
	}
	if !s.Contains(7, 7) {
		t.Fatal("empty interval should be trivially contained")
	}
}

func TestIsContiguousFromZero(t *testing.T) {
	var s Set
	if !s.IsContiguousFromZero(0) {
		t.Fatal("empty set should be contiguous [0,0)")
	}
	s.Add(0, 4096)
	s.Add(4096, 8192)
	if !s.IsContiguousFromZero(8192) {
		t.Fatal("should be contiguous")
	}
	if s.IsContiguousFromZero(10000) {
		t.Fatal("not that long")
	}
	var gap Set
	gap.Add(0, 10)
	gap.Add(20, 30)
	if gap.IsContiguousFromZero(30) {
		t.Fatal("has a hole")
	}
}

func TestRangesCopy(t *testing.T) {
	var s Set
	s.Add(1, 2)
	rs := s.Ranges()
	rs[0].End = 99
	if s.Contains(2, 99) {
		t.Fatal("Ranges() exposed internal state")
	}
	if rs[0].Len() != 98 || rs[0].String() == "" {
		t.Fatal("Range helpers wrong")
	}
}

// Property: adding pages in any order yields exactly [0, n*pageSize) when
// every page is added once.
func TestSequentialCoverageProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int64(nRaw%64) + 1
		perm := rand.New(rand.NewSource(seed)).Perm(int(n))
		var s Set
		for _, pg := range perm {
			s.Add(int64(pg)*4096, int64(pg+1)*4096)
		}
		return s.IsContiguousFromZero(n*4096) && s.Total() == n*4096
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: invariants hold for arbitrary add sequences — ranges stay
// sorted, disjoint, non-adjacent; every added byte is contained.
func TestInvariantProperty(t *testing.T) {
	type add struct{ Start, Len uint16 }
	f := func(adds []add) bool {
		var s Set
		for _, a := range adds {
			s.Add(int64(a.Start), int64(a.Start)+int64(a.Len%512))
		}
		rs := s.Ranges()
		for i, r := range rs {
			if r.End <= r.Start {
				return false
			}
			if i > 0 && rs[i-1].End >= r.Start {
				return false // overlapping or adjacent (should have merged)
			}
		}
		for _, a := range adds {
			end := int64(a.Start) + int64(a.Len%512)
			if end > int64(a.Start) && !s.Contains(int64(a.Start), end) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the set holds exactly the bytes added, checked byte by byte
// against a bitmap, as maximal ranges, when most adds follow or extend
// the last range (the constant-time path) and the rest land anywhere
// (the search).
func TestAddMatchesByteMap(t *testing.T) {
	const size = 4096
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		var ref [size]bool
		var last int64
		for step := 0; step < 200; step++ {
			var start int64
			switch rng.Intn(4) {
			case 0, 1: // follow or extend the highest byte so far
				start = max(0, last-int64(rng.Intn(16))+int64(rng.Intn(24)))
			default:
				start = int64(rng.Intn(size))
			}
			end := min(size, start+int64(rng.Intn(64)))
			s.Add(start, end)
			for b := start; b < end; b++ {
				ref[b] = true
			}
			last = max(last, end)
			var total int64
			spans := 0
			for b := int64(0); b < size; b++ {
				if ref[b] {
					total++
					if b == 0 || !ref[b-1] {
						spans++
					}
				}
				if s.Contains(b, b+1) != ref[b] {
					return false
				}
			}
			if s.Total() != total || s.Spans() != spans {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
