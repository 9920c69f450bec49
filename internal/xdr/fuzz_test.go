package xdr

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecode drives a Decoder over arbitrary bytes with an op script
// and checks the cursor invariants that every nfsproto decoder relies
// on: the offset never exceeds the buffer, Offset+Remaining is always
// exactly the buffer length, a successful read advances the cursor,
// and a failed read leaves it where it was. The script runs on past the
// first failure to check that the error is sticky: every later read
// returns its zero value, the cursor stays put, and Err stays the first
// error. Op 5 is a Fail, which must not overwrite an earlier error.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, bytes.Repeat([]byte{0xff}, 7))
	f.Add([]byte{4, 4, 4}, []byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o', 0, 0, 0})
	f.Add([]byte{5, 3}, bytes.Repeat([]byte{0xff}, 256))
	f.Add([]byte{2, 2, 2}, []byte{0, 0, 0})
	f.Add([]byte{3, 3, 3, 0}, []byte{0, 0, 0, 3, 'a', 'b', 'c', 0, 0, 0, 0, 9})
	invalid := errors.New("invalid value")
	f.Fuzz(func(t *testing.T, script, data []byte) {
		d := NewDecoder(data)
		var first error
		for _, op := range script {
			before := d.Offset()
			var zero bool
			switch op % 6 {
			case 0:
				zero = d.Uint32() == 0
			case 1:
				zero = d.Uint64() == 0
			case 2:
				zero = !d.Bool()
			case 3:
				zero = d.OpaqueRef() == nil
			case 4:
				zero = d.String() == ""
			case 5:
				d.Fail(invalid)
				zero = true
			}
			off := d.Offset()
			if off < 0 || off > len(data) {
				t.Fatalf("op %d: offset %d outside [0,%d]", op, off, len(data))
			}
			if off+d.Remaining() != len(data) {
				t.Fatalf("op %d: offset %d + remaining %d != len %d",
					op, off, d.Remaining(), len(data))
			}
			switch {
			case first != nil:
				if !zero || off != before || d.Err() != first {
					t.Fatalf("op %d after error %v: zero=%v cursor %d -> %d err %v",
						op, first, zero, before, off, d.Err())
				}
			case d.Err() != nil:
				first = d.Err()
				if off != before {
					t.Fatalf("op %d: failed read moved cursor %d -> %d", op, before, off)
				}
			case off <= before:
				t.Fatalf("op %d: successful read left the cursor at %d", op, off)
			}
		}
	})
}

// FuzzRoundTrip encodes one value of each kind and decodes it back:
// the decode must reproduce the inputs exactly and consume the buffer
// fully, for any values the fuzzer picks.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint32(7), int32(-1), uint64(1<<40), true, []byte("opaque"), "str")
	f.Add(uint32(0), int32(0), uint64(0), false, []byte{}, "")
	f.Fuzz(func(t *testing.T, u32 uint32, i32 int32, u64 uint64, b bool, op []byte, s string) {
		e := NewEncoder(64)
		e.Uint32(u32)
		e.Uint32(uint32(i32))
		e.Uint64(u64)
		e.Bool(b)
		e.Opaque(op)
		e.String(s)

		d := NewDecoder(e.Bytes())
		gu32 := d.Uint32()
		gi32 := int32(d.Uint32())
		gu64 := d.Uint64()
		gb := d.Bool()
		gop := d.OpaqueRef()
		gs := d.String()
		if err := d.Err(); err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		if gu32 != u32 || gi32 != i32 || gu64 != u64 || gb != b ||
			!bytes.Equal(gop, op) || gs != s {
			t.Fatalf("round trip mismatch: got (%d %d %d %v %x %q), want (%d %d %d %v %x %q)",
				gu32, gi32, gu64, gb, gop, gs, u32, i32, u64, b, op, s)
		}
		if d.Remaining() != 0 {
			t.Fatalf("round trip left %d bytes", d.Remaining())
		}
	})
}

// FuzzZeroRunMatchesCopy runs a script of pool operations and encodes:
// junk buffers recycled bare, encoders that mix zero-page runs, junk
// opaques and words and then are released or taken and recycled. Each
// encoder's bytes must equal a fresh encoder's given the same values
// with the zeroes copied, and every pooled buffer's mark must hold after
// each operation.
func FuzzZeroRunMatchesCopy(f *testing.F) {
	f.Add([]byte{1, 3, 1, 200, 0, 1, 1, 1, 9, 2, 201, 5, 7})
	f.Add([]byte{0, 255, 1, 2, 1, 110, 2, 100, 2, 1, 1, 3})
	f.Add([]byte{2, 4, 1, 5, 3, 6, 0, 7, 1, 1, 1, 1, 120, 3, 119})
	f.Fuzz(func(t *testing.T, script []byte) {
		next := func() int {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return int(b)
		}
		size := func() int { return next() * 41 } // up to 10,455 bytes
		for len(script) > 0 {
			switch op := next(); op % 3 {
			case 0:
				dirty(size())
			default:
				p := newPair()
				for range next() % 8 {
					switch next() % 4 {
					case 0:
						p.uint32(uint32(next()) + 1)
					case 1:
						p.zeroes(size())
					case 2:
						p.fixedZeroes(size())
					case 3:
						p.junk(size())
					}
				}
				p.check(t)
				if op%3 == 1 {
					p.e.Release()
				} else {
					RecycleBuffer(p.e.Take())
				}
			}
			if err := checkPools(); err != nil {
				t.Fatal(err)
			}
		}
	})
}
