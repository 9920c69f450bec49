// Package rangeset maintains sets of half-open byte ranges [start, end).
// The simulated servers use it to track exactly which bytes of each file
// have arrived, so integration tests can assert that a benchmark run
// delivered every byte exactly where the client claimed it would —
// end-to-end validation that request splitting, coalescing and
// retransmission never lose or misplace data.
package rangeset

import (
	"fmt"
	"sort"
	"strings"
)

// Range is a half-open interval [Start, End).
type Range struct {
	Start int64
	End   int64
}

// Len returns the range's length.
func (r Range) Len() int64 { return r.End - r.Start }

func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Start, r.End) }

// Set is a set of non-overlapping, non-adjacent ranges kept in ascending
// order. The zero value is an empty set.
type Set struct {
	ranges []Range
}

// Add inserts [start, end), merging with overlapping or adjacent ranges.
// Empty or inverted ranges are ignored.
func (s *Set) Add(start, end int64) {
	if end <= start {
		return
	}
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].End >= start })
	j := i
	for j < len(s.ranges) && s.ranges[j].Start <= end {
		if s.ranges[j].Start < start {
			start = s.ranges[j].Start
		}
		if s.ranges[j].End > end {
			end = s.ranges[j].End
		}
		j++
	}
	if i == j {
		// Pure insertion at i: grow by one and shift the tail right,
		// reusing the backing array.
		s.ranges = append(s.ranges, Range{})
		copy(s.ranges[i+1:], s.ranges[i:])
		s.ranges[i] = Range{start, end}
		return
	}
	// Collapse [i, j) into the single merged range in place.
	s.ranges[i] = Range{start, end}
	s.ranges = append(s.ranges[:i+1], s.ranges[j:]...)
}

// Contains reports whether every byte of [start, end) is in the set.
func (s *Set) Contains(start, end int64) bool {
	if end <= start {
		return true
	}
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].End > start })
	return i < len(s.ranges) && s.ranges[i].Start <= start && s.ranges[i].End >= end
}

// Total returns the number of bytes covered.
func (s *Set) Total() int64 {
	var t int64
	for _, r := range s.ranges {
		t += r.Len()
	}
	return t
}

// Ranges returns a copy of the ranges in ascending order.
func (s *Set) Ranges() []Range {
	out := make([]Range, len(s.ranges))
	copy(out, s.ranges)
	return out
}

func (s *Set) String() string {
	parts := make([]string, len(s.ranges))
	for i, r := range s.ranges {
		parts[i] = r.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
