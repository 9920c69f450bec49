package core

import "slices"

// pageSet is a set of page indexes kept as a bitmap, one bit for each
// page from page 0 to the highest page added: a 1 GB file costs 32 KB.
// Adding or removing a page, or a run of them, touches only the words
// that hold them. The words come from the simulation's records and go
// back there when the set is released. The zero value is an empty set.
type pageSet struct {
	words []uint64 // bit pg&63 of words[pg>>6] is page pg; words past len are zero up to cap
}

// has reports whether page pg is in the set.
func (s *pageSet) has(pg int64) bool {
	w := pg >> 6
	return w < int64(len(s.words)) && s.words[w]&(1<<(pg&63)) != 0
}

// add puts pages [lo, hi) in the set, growing it with words from recs.
func (s *pageSet) add(lo, hi int64, recs *records) {
	if hi <= lo {
		return
	}
	if need := int((hi + 63) >> 6); need > len(s.words) {
		s.grow(need, recs)
	}
	s.span(lo, hi, true)
}

// remove takes pages [lo, hi) out of the set.
func (s *pageSet) remove(lo, hi int64) {
	s.span(lo, min(hi, int64(len(s.words))<<6), false)
}

// span sets or clears the bits of pages [lo, hi), which the words hold,
// one word at a time.
func (s *pageSet) span(lo, hi int64, set bool) {
	for lo < hi {
		w := lo >> 6
		end := min(hi, (w+1)<<6)
		mask := ^uint64(0) >> (64 - (end - lo)) << (lo & 63)
		if set {
			s.words[w] |= mask
		} else {
			s.words[w] &^= mask
		}
		lo = end
	}
}

// grow makes room for need words. Past its capacity it moves to the
// smallest array in recs that fits, or to a new one twice as large, and
// gives the outgrown array back to recs.
func (s *pageSet) grow(need int, recs *records) {
	if need <= cap(s.words) {
		s.words = s.words[:need]
		return
	}
	fit := -1
	for i, a := range recs.bits {
		if cap(a) >= need && (fit < 0 || cap(a) < cap(recs.bits[fit])) {
			fit = i
		}
	}
	var w []uint64
	if fit >= 0 {
		w = recs.bits[fit][:need]
		recs.bits = slices.Delete(recs.bits, fit, fit+1)
	} else {
		w = make([]uint64, need, max(need, 2*cap(s.words)))
	}
	copy(w, s.words)
	s.release(recs)
	s.words = w
}

// clear empties the set and keeps its words.
func (s *pageSet) clear() { clear(s.words) }

// release empties the set and gives its words back to recs.
func (s *pageSet) release(recs *records) {
	if cap(s.words) == 0 {
		return
	}
	clear(s.words)
	recs.bits = append(recs.bits, s.words[:0])
	s.words = nil
}
