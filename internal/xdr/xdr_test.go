package xdr

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestUint32RoundTrip(t *testing.T) {
	e := NewEncoder(16)
	e.Uint32(0xdeadbeef)
	e.Uint32(0xffffffff)
	d := NewDecoder(e.Bytes())
	if u := d.Uint32(); u != 0xdeadbeef {
		t.Fatalf("u=%x", u)
	}
	if u := d.Uint32(); u != 0xffffffff {
		t.Fatalf("u=%x", u)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestUint64RoundTrip(t *testing.T) {
	e := NewEncoder(8)
	e.Uint64(0x0123456789abcdef)
	d := NewDecoder(e.Bytes())
	if v := d.Uint64(); v != 0x0123456789abcdef || d.Err() != nil {
		t.Fatalf("v=%x err=%v", v, d.Err())
	}
}

func TestBoolRoundTrip(t *testing.T) {
	e := NewEncoder(8)
	e.Bool(true)
	e.Bool(false)
	d := NewDecoder(e.Bytes())
	a := d.Bool()
	b := d.Bool()
	if d.Err() != nil || !a || b {
		t.Fatalf("a=%v b=%v err=%v", a, b, d.Err())
	}
}

func TestOpaquePadding(t *testing.T) {
	for n := 0; n <= 9; n++ {
		e := NewEncoder(32)
		data := bytes.Repeat([]byte{0xab}, n)
		e.Opaque(data)
		if e.Len()%4 != 0 {
			t.Fatalf("n=%d: encoded length %d not 4-aligned", n, e.Len())
		}
		if e.Len() != OpaqueLen(n) {
			t.Fatalf("n=%d: len=%d, OpaqueLen=%d", n, e.Len(), OpaqueLen(n))
		}
		d := NewDecoder(e.Bytes())
		got := d.OpaqueRef()
		if d.Err() != nil || !bytes.Equal(got, data) || cap(got) != n {
			t.Fatalf("n=%d: got %v (cap %d) err %v", n, got, cap(got), d.Err())
		}
		if d.Remaining() != 0 {
			t.Fatalf("n=%d: %d bytes left over", n, d.Remaining())
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	e := NewEncoder(32)
	e.String("nfs_flushd")
	if e.Len() != StringLen("nfs_flushd") {
		t.Fatalf("len=%d want %d", e.Len(), StringLen("nfs_flushd"))
	}
	d := NewDecoder(e.Bytes())
	if s := d.String(); s != "nfs_flushd" || d.Err() != nil {
		t.Fatalf("s=%q err=%v", s, d.Err())
	}
}

func TestFixedOpaqueRoundTrip(t *testing.T) {
	e := NewEncoder(16)
	e.FixedOpaque([]byte{1, 2, 3})
	if e.Len() != 4 {
		t.Fatalf("len = %d, want 4 (padded)", e.Len())
	}
	if got := NewDecoder(e.Bytes()).Uint32(); got != 0x01020300 {
		t.Fatalf("got %#x, want the bytes then one zero pad byte", got)
	}
}

func TestDecodeShortBuffer(t *testing.T) {
	d := NewDecoder([]byte{0, 0})
	if d.Uint32(); d.Err() != ErrShortBuffer {
		t.Fatalf("err = %v", d.Err())
	}
	d = NewDecoder([]byte{0, 0, 0})
	if d.Uint64(); d.Err() != ErrShortBuffer {
		t.Fatalf("err = %v", d.Err())
	}
	d = NewDecoder(nil)
	if d.OpaqueRef(); d.Err() != ErrShortBuffer {
		t.Fatalf("err = %v", d.Err())
	}
	// A length that fits but whose padding does not.
	d = NewDecoder([]byte{0, 0, 0, 1, 0xab})
	if b := d.OpaqueRef(); b != nil || d.Err() != ErrShortBuffer || d.Offset() != 0 {
		t.Fatalf("b=%v err=%v offset=%d", b, d.Err(), d.Offset())
	}
}

func TestDecodeBadLength(t *testing.T) {
	e := NewEncoder(8)
	e.Uint32(100) // claims 100 bytes follow; none do
	d := NewDecoder(e.Bytes())
	if b := d.OpaqueRef(); b != nil || d.Err() != ErrBadLength {
		t.Fatalf("b=%v err=%v", b, d.Err())
	}
	if d.Offset() != 0 {
		t.Fatalf("a bad length left the cursor at %d, not before the length word", d.Offset())
	}
}

// Once a read fails, every later read returns its zero value and leaves
// the cursor and the first error alone.
func TestDecodeErrorIsSticky(t *testing.T) {
	d := NewDecoder([]byte{0, 0, 0, 7, 0, 0})
	if v := d.Uint32(); v != 7 {
		t.Fatalf("v=%d", v)
	}
	d.Uint64()
	if d.Err() != ErrShortBuffer || d.Offset() != 4 {
		t.Fatalf("err=%v offset=%d", d.Err(), d.Offset())
	}
	if d.Uint32() != 0 || d.Bool() || d.OpaqueRef() != nil || d.String() != "" {
		t.Fatal("a read after the first error returned a nonzero value")
	}
	if d.Err() != ErrShortBuffer || d.Offset() != 4 {
		t.Fatalf("later reads changed err=%v offset=%d", d.Err(), d.Offset())
	}
}

// Fail records a message-level error only when no earlier error is
// recorded, and Reset clears whatever is.
func TestFailKeepsFirstError(t *testing.T) {
	invalid := errors.New("invalid value")
	d := NewDecoder([]byte{0, 0})
	d.Uint32()
	d.Fail(invalid)
	if d.Err() != ErrShortBuffer {
		t.Fatalf("Fail overwrote the read error: %v", d.Err())
	}
	d = NewDecoder([]byte{0, 0, 0, 1})
	d.Fail(invalid)
	d.Fail(ErrBadLength)
	if d.Err() != invalid {
		t.Fatalf("err = %v, want the first Fail's", d.Err())
	}
	if d.Uint32() != 0 || d.Offset() != 0 {
		t.Fatal("a read after Fail decoded a value")
	}
}

func TestResetClearsError(t *testing.T) {
	d := NewDecoder(nil)
	d.Uint32()
	d.Reset([]byte{0, 0, 0, 9})
	if d.Err() != nil {
		t.Fatalf("err after Reset = %v", d.Err())
	}
	if v := d.Uint32(); v != 9 || d.Err() != nil {
		t.Fatalf("v=%d err=%v", v, d.Err())
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.Uint32(1)
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("len after reset = %d", e.Len())
	}
}

// Property: any mixed sequence of values round-trips.
func TestMixedRoundTripProperty(t *testing.T) {
	f := func(a uint32, b uint64, s string, o []byte, flag bool) bool {
		e := NewEncoder(64)
		e.Uint32(a)
		e.Uint64(b)
		e.String(s)
		e.Opaque(o)
		e.Bool(flag)
		d := NewDecoder(e.Bytes())
		ga := d.Uint32()
		gb := d.Uint64()
		gs := d.String()
		gob := d.OpaqueRef()
		gf := d.Bool()
		return d.Err() == nil && ga == a && gb == b && gs == s && bytes.Equal(gob, o) && gf == flag && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: encoded length is always 4-byte aligned.
func TestAlignmentProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		e := NewEncoder(64)
		for _, c := range chunks {
			e.Opaque(c)
		}
		return e.Len()%4 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLenHelpers(t *testing.T) {
	if FixedLen(0) != 0 || FixedLen(1) != 4 || FixedLen(4) != 4 || FixedLen(5) != 8 {
		t.Fatal("FixedLen wrong")
	}
	if OpaqueLen(0) != 4 || OpaqueLen(3) != 8 {
		t.Fatal("OpaqueLen wrong")
	}
}
