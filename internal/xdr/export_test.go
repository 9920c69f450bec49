package xdr

// Reset discards the buffer contents, retaining capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Offset returns the number of consumed bytes.
func (d *Decoder) Offset() int { return d.off }
