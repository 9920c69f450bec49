package xdr

import (
	"bytes"
	"fmt"
)

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.truncate() }

// Offset returns the number of consumed bytes.
func (d *Decoder) Offset() int { return d.off }

// dirtyAt returns the offset of the first nonzero byte of e's array at
// or past max(mark, Len), or -1 if the mark holds.
func (e *Encoder) dirtyAt() int {
	from := max(e.mark, len(e.buf))
	tail := e.buf[from:cap(e.buf)]
	if bytes.Equal(tail, zeroes[:len(tail)]) {
		return -1
	}
	for i, c := range tail {
		if c != 0 {
			return from + i
		}
	}
	return -1
}

// checkPools checks every pooled buffer's mark: no byte at or past it
// may be nonzero. It takes each encoder out of both size classes and
// puts it back.
func checkPools() error {
	var all []*Encoder
	for i := range full {
		for {
			e, ok := full[i].Get().(*Encoder)
			if !ok {
				break
			}
			all = append(all, e)
		}
	}
	var err error
	for _, e := range all {
		if i := e.dirtyAt(); i >= 0 && err == nil {
			err = fmt.Errorf("pooled buffer of capacity %d, mark %d: byte %d is %#x",
				cap(e.buf), e.mark, i, e.buf[:cap(e.buf)][i])
		}
		full[sizeClass(cap(e.buf))].Put(e)
	}
	return err
}
