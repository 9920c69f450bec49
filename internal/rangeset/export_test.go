package rangeset

// IsContiguousFromZero reports whether the set is exactly [0, n).
func (s *Set) IsContiguousFromZero(n int64) bool {
	if n == 0 {
		return len(s.ranges) == 0
	}
	return len(s.ranges) == 1 && s.ranges[0].Start == 0 && s.ranges[0].End == n
}

// Spans returns the number of disjoint ranges.
func (s *Set) Spans() int { return len(s.ranges) }
