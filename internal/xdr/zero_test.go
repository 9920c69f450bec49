package xdr

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"testing"
)

// junk is nonzero filler for wire buffers, so a byte the encoder should
// have rewritten but did not shows.
var junk = func() []byte {
	b := make([]byte, 1<<17)
	r := rand.New(rand.NewPCG(1, 2))
	for i := range b {
		b[i] = byte(r.IntN(255) + 1)
	}
	return b
}()

// plain is an all-zero slice that is not the zero page, so encoding it
// takes the ordinary copying path: the reference for a zero run.
var plain = make([]byte, 1<<17)

// pair drives a pooled encoder and a fresh reference encoder through
// the same values: the pooled one gets zero runs from the zero page, the
// reference the same zeroes copied from plain.
type pair struct{ e, ref *Encoder }

func newPair() pair { return pair{AcquireEncoder(), NewEncoder(0)} }

func (p pair) uint32(v uint32) { p.e.Uint32(v); p.ref.Uint32(v) }

func (p pair) zeroes(n int) {
	p.e.Grow(OpaqueLen(n))
	p.e.Opaque(Zeroes(n))
	p.ref.Opaque(plain[:n])
}

func (p pair) fixedZeroes(n int) {
	p.e.FixedOpaque(Zeroes(n))
	p.ref.FixedOpaque(plain[:n])
}

func (p pair) junk(n int) {
	p.e.Grow(OpaqueLen(n))
	p.e.Opaque(junk[:n])
	p.ref.Opaque(junk[:n])
}

func (p pair) check(t *testing.T) {
	t.Helper()
	if !bytes.Equal(p.e.Bytes(), p.ref.Bytes()) {
		t.Fatalf("pooled encoding of %d bytes differs from a fresh encoder's", p.ref.Len())
	}
}

// dirty puts a buffer of length n full of junk in the pool.
func dirty(n int) {
	b := AcquireBuffer(n)
	copy(b, junk)
	RecycleBuffer(b)
}

// scramble does one pool operation chosen by r that leaves nonzero bytes
// in a pooled buffer: a junk-filled buffer recycled bare, a junk payload
// encoded after Grow and released or taken and recycled, or a zero run
// followed by an append, in place or into a grown buffer.
func scramble(t *testing.T, r *rand.Rand) {
	t.Helper()
	n := r.IntN(9000)
	switch r.IntN(5) {
	case 0:
		dirty(n)
	case 1:
		p := newPair()
		p.uint32(r.Uint32())
		p.junk(n)
		p.check(t)
		p.e.Release()
	case 2:
		p := newPair()
		p.junk(n)
		p.check(t)
		RecycleBuffer(p.e.Take())
	case 3:
		p := newPair()
		p.zeroes(n)
		p.uint32(r.Uint32() | 1)
		p.check(t)
		p.e.Release()
	case 4:
		p := newPair()
		p.uint32(r.Uint32() | 1)
		p.fixedZeroes(r.IntN(300))
		p.junk(n)
		p.check(t)
		p.e.Release()
	}
	if err := checkPools(); err != nil {
		t.Fatal(err)
	}
}

// A zero run appended into pooled buffers that earlier messages left
// dirty encodes byte for byte what copying the zeroes would: for every
// length in both size classes, with every padding, after each kind of
// pool operation. Every pooled buffer's mark holds after each step.
func TestZeroRunMatchesCopy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool shard
	r := rand.New(rand.NewPCG(3, 4))
	for n := 0; n <= 70000; n++ {
		scramble(t, r)
		p := newPair()
		p.uint32(uint32(n))
		p.zeroes(n)
		p.check(t)
		p.e.Release()
		if err := checkPools(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// Emptying an encoder counts a zero run still at its tail as unwritten,
// so the next zero payload writes nothing past the header; a run with
// bytes after it counts as written, and a mark above what was written
// stays where it is.
func TestTruncateMarksWrittenBytes(t *testing.T) {
	e := NewEncoder(9000)
	for _, c := range []struct {
		name   string
		encode func()
		mark   int
	}{
		{"zero tail", func() { e.Uint32(7); e.Opaque(Zeroes(8192)) }, 8},
		{"append after run", func() { e.Uint32(7); e.Opaque(Zeroes(100)); e.Uint32(1) }, 112},
		{"below the mark", func() { e.Uint32(7) }, 112},
	} {
		c.encode()
		e.Reset()
		if e.mark != c.mark {
			t.Fatalf("%s: mark %d, want %d", c.name, e.mark, c.mark)
		}
	}
}
