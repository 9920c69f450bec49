// Package xdr implements the subset of XDR (RFC 1832, External Data
// Representation) needed to marshal SunRPC and NFSv3 messages. The
// simulation carries real encoded bytes on its virtual wire so that
// message sizes — and therefore transmission times and IP fragment counts —
// are faithful to what the 2.4.4 client put on the network.
//
// Payload contents are not modeled, so every WRITE and READ payload is a
// slice of one shared zero page (Zeroes). Encoders and their pooled
// buffers remember which of their bytes are already zero, so appending
// a zero payload writes only the bytes an earlier message dirtied; the
// wire bytes are exactly what copying the zeroes would give.
package xdr

import (
	"encoding/binary"
	"errors"
	"slices"
	"sync"
)

// Errors returned by the decoder.
var (
	ErrShortBuffer = errors.New("xdr: short buffer")
	ErrBadLength   = errors.New("xdr: invalid length")
)

// Encoder appends XDR-encoded values to a buffer. The zero value is ready
// to use.
//
// The encoder knows which bytes of its buffer's array are already zero:
// every byte at or past max(mark, Len) is. A zero run (Opaque or
// FixedOpaque of a Zeroes slice) therefore writes only the part of the
// run below the mark, and a pooled buffer that carried a zero payload
// last time takes the next one without touching its bytes. runStart and
// runEnd bound the last zero run appended; while it is still the
// encoder's tail (runEnd == Len), Release marks the buffer clean from
// the run's start instead of from Len.
type Encoder struct {
	buf              []byte
	mark             int
	runStart, runEnd int
}

// NewEncoder returns an encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// zeroes backs Zeroes: payload content is not modeled (only wire size),
// so every bulk-data slice can alias one shared read-only page instead
// of allocating per RPC. 1 MiB covers any wsize/rsize the harness
// configures; larger requests fall back to a fresh allocation.
var zeroes = make([]byte, 1<<20)

// Zeroes returns an all-zero payload of n bytes. The slice aliases a
// shared page and must never be written to; an encoder appends it
// without copying (see Encoder).
func Zeroes(n int) []byte {
	if n <= len(zeroes) {
		return zeroes[:n:n]
	}
	return make([]byte, n)
}

// The RPC hot paths recycle encoders and wire buffers instead of
// allocating one per message: a thousand-client fleet encodes millions
// of 8 KiB WRITE payloads, and per-RPC allocation is almost entirely GC
// pressure. Buffer contents never influence behaviour (every byte is
// written, or known to be zero, before it is read), so pooling cannot
// change simulation output; sync.Pool keeps concurrent sweep workers
// race-free.
//
// The pools hold *Encoder, never a bare []byte: putting a slice into a
// sync.Pool boxes its header, one allocation per recycle. full holds
// encoders carrying a buffer, in two size classes split at largeBuffer,
// so a recycled 20-byte ACK or 200-byte reply never meets a request for
// an 8 KiB call or record. A pooled encoder keeps its clean mark, so a
// buffer released after a zero payload comes back knowing which of its
// bytes are still zero; a buffer recycled bare (RecycleBuffer) is
// marked dirty to its capacity, since whoever filled it wrote anywhere.
// empty holds the bufferless shells that AcquireBuffer and
// RecycleBuffer move buffers in and out of; a shell carries no mark. A
// class only separates sizes: buffers are allocated at exactly the size
// asked for, because rounding 8.3 KB records up to 16 KiB doubles the
// bytes every one of them holds.
var (
	full  [2]sync.Pool // by sizeClass
	empty sync.Pool
)

// largeBuffer is the capacity from which a buffer belongs to the large
// class: above a reply of a few hundred bytes, below an 8 KiB call.
const largeBuffer = 4096

// sizeClass returns the pool class for a buffer of capacity n.
func sizeClass(n int) int {
	if n >= largeBuffer {
		return 1
	}
	return 0
}

// shell returns a bufferless encoder.
func shell() *Encoder {
	if e, ok := empty.Get().(*Encoder); ok {
		return e
	}
	return &Encoder{}
}

// drop returns e to the shells. Its buffer, if any, now belongs to
// someone else, who writes its bytes, so the mark goes with it.
func (e *Encoder) drop() {
	*e = Encoder{}
	empty.Put(e)
}

// acquire returns a pooled encoder of the size class of n, with an empty
// buffer of capacity at least n and the buffer's mark.
func acquire(n int) *Encoder {
	e, ok := full[sizeClass(n)].Get().(*Encoder)
	if !ok {
		e = shell()
	}
	if cap(e.buf) < n {
		// Dropping a too-small buffer, rather than putting it back where
		// the next Get would return it again, lets the class settle on
		// buffers that fit its requests. A new array is all zero.
		e.buf, e.mark = make([]byte, 0, n), 0
	}
	return e
}

// truncate empties the buffer, first raising the mark over every byte
// the encoder may have written: up to the start of a zero run still at
// the tail, or else to Len. A mark already above that stays, since the
// bytes below it were not checked.
func (e *Encoder) truncate() {
	clean := len(e.buf)
	if e.runEnd == clean {
		clean = e.runStart
	}
	e.mark = max(e.mark, clean)
	e.buf = e.buf[:0]
	e.runStart, e.runEnd = 0, 0
}

// AcquireEncoder returns a pooled encoder. Pair with Release once the
// encoded bytes are no longer referenced by anyone.
func AcquireEncoder() *Encoder {
	if e, ok := full[0].Get().(*Encoder); ok {
		return e
	}
	e := shell()
	e.buf = make([]byte, 0, 256)
	return e
}

// Release returns the encoder and its buffer, with its mark, to the
// pool. The caller asserts that no slice of the buffer (Bytes, decoded
// aliases) is still live.
func (e *Encoder) Release() {
	if e.buf == nil {
		e.drop()
		return
	}
	e.truncate()
	full[sizeClass(cap(e.buf))].Put(e)
}

// AcquireBuffer returns a pooled wire buffer of length n with unspecified
// contents, for a transport to fill (a reassembled stream record).
// Whoever ends up owning the bytes hands them back with RecycleBuffer.
func AcquireBuffer(n int) []byte {
	e := acquire(n)
	b := e.buf[:n]
	e.drop()
	return b
}

// RecycleBuffer returns a wire payload whose bytes are dead — fully
// consumed by a decoder whose aliases have been dropped — to the encode
// buffer pool, marked dirty to its capacity. b must be the whole buffer
// as acquired (it may be re-sliced to a shorter length, but not advanced
// past its first byte).
func RecycleBuffer(b []byte) {
	e := shell()
	e.buf, e.mark = b[:0], cap(b)
	full[sizeClass(cap(b))].Put(e)
}

// Recycler owns wire buffers that have no other owner: its Release
// hands them to RecycleBuffer. A sender sets it as a datagram's owner
// (netsim.Owner) when the one copy it sends is the receiver's to keep.
type Recycler struct{}

// Release recycles b.
func (Recycler) Release(b []byte) { RecycleBuffer(b) }

// Take returns the encoded bytes and puts the emptied encoder back in the
// pool. The caller owns the buffer and hands it back with RecycleBuffer;
// the encoder must not be used again.
func (e *Encoder) Take() []byte {
	b := e.buf
	e.drop()
	return b
}

// Bytes returns the encoded buffer (not a copy). Its bytes must not be
// written: the encoder's mark trusts them to be what it appended.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Grow reserves capacity for at least n more bytes, so that encoding a
// payload whose size is known up front costs one reallocation instead of
// a doubling series of appends. The larger buffer comes from the pool
// with its mark, and the one it replaces goes back to it with this
// encoder's, so Grow must not run once the encoder's Bytes have been
// taken.
func (e *Encoder) Grow(n int) {
	if cap(e.buf)-len(e.buf) >= n {
		return
	}
	g := acquire(len(e.buf) + n)
	g.buf = append(g.buf, e.buf...)
	e.buf, g.buf = g.buf, e.buf
	e.mark, g.mark = g.mark, e.mark
	// The encoded bytes, and so the zero run at their tail, are the
	// same in both buffers.
	g.runStart, g.runEnd = e.runStart, e.runEnd
	if cap(g.buf) > 0 {
		g.Release()
	} else {
		g.drop()
	}
}

// Uint32 encodes a 32-bit unsigned integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Uint64 encodes a 64-bit unsigned integer (XDR hyper).
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Bool encodes a boolean as a 32-bit 0/1.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Uint32(1)
	} else {
		e.Uint32(0)
	}
}

// Opaque encodes variable-length opaque data: a length word followed by
// the bytes padded to a 4-byte boundary.
func (e *Encoder) Opaque(b []byte) {
	e.Uint32(uint32(len(b)))
	e.FixedOpaque(b)
}

// FixedOpaque encodes fixed-length opaque data (bytes plus padding, no
// length word). A Zeroes slice is appended as a zero run: only its bytes
// below the mark are written, copied from the zero page, since a copy
// writes cold cache lines where a clear would read each one first.
func (e *Encoder) FixedOpaque(b []byte) {
	if len(b) > 0 && &b[0] == &zeroes[0] {
		e.zeroRun(FixedLen(len(b)))
		return
	}
	e.buf = append(e.buf, b...)
	if pad := (4 - len(b)%4) % 4; pad > 0 {
		e.buf = append(e.buf, make([]byte, pad)...)
	}
}

// zeroRun appends n zero bytes, writing only those below the mark.
func (e *Encoder) zeroRun(n int) {
	// A grown array holds copies of the old one's bytes below its old
	// capacity and zeroes above it, so the mark stays true.
	e.buf = slices.Grow(e.buf, n)
	start := len(e.buf)
	e.buf = e.buf[:start+n]
	if e.mark > start {
		copy(e.buf[start:min(e.mark, start+n)], zeroes)
	}
	e.runStart, e.runEnd = start, start+n
}

// String encodes an XDR string (same wire form as Opaque).
func (e *Encoder) String(s string) { e.Opaque([]byte(s)) }

// Decoder consumes XDR-encoded values from a buffer. Its error is
// sticky: the first read that fails records the error, and every later
// read returns its zero value without moving the cursor, so a message
// decoder is a plain run of reads that checks Err once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder reading from b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Reset points the decoder at b with the cursor at its start and clears
// any error, so one decoder can serve a stream of messages without
// allocating.
func (d *Decoder) Reset(b []byte) { d.buf, d.off, d.err = b, 0, nil }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Err returns the first error the decoder met, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records err unless an earlier error is already recorded. Message
// decoders use it to reject a value that decoded cleanly but is not
// valid, such as a file handle of the wrong size.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the next n bytes and advances past them, or fails with
// ErrShortBuffer and leaves the cursor where it was.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.err = ErrShortBuffer
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Uint32 decodes a 32-bit unsigned integer.
func (d *Decoder) Uint32() uint32 {
	if b := d.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// Uint64 decodes a 64-bit unsigned integer.
func (d *Decoder) Uint64() uint64 {
	if b := d.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Bool decodes a boolean; any nonzero word is true (per RFC 1832 booleans
// are 0 or 1, but we are liberal in what we accept).
func (d *Decoder) Bool() bool { return d.Uint32() != 0 }

// OpaqueRef decodes variable-length opaque data as a subslice of the
// decoder's buffer, not a copy. The result is only valid while the
// underlying buffer is, and must not be mutated. A bad length fails the
// read with the cursor restored to before the length word.
func (d *Decoder) OpaqueRef() []byte {
	start := d.off
	n := d.Uint32()
	if d.err == nil && n > uint32(d.Remaining()) {
		d.err = ErrBadLength
	}
	b := d.take(FixedLen(int(n)))
	if d.err != nil {
		d.off = start
		return nil
	}
	return b[:n:n]
}

// String decodes an XDR string. The string conversion is the only copy.
func (d *Decoder) String() string { return string(d.OpaqueRef()) }

// OpaqueLen returns the encoded size of variable-length opaque data of n
// bytes: 4-byte length word plus the payload rounded up to 4 bytes.
func OpaqueLen(n int) int { return 4 + FixedLen(n) }

// FixedLen returns the encoded size of n bytes of fixed opaque data.
func FixedLen(n int) int { return n + (4-n%4)%4 }
