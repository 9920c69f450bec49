package xdr

import (
	"bytes"
	"testing"
)

// FuzzDecode drives a Decoder over arbitrary bytes with an op script
// and checks the cursor invariants that every nfsproto decoder relies
// on: the offset never exceeds the buffer, Offset+Remaining is always
// exactly the buffer length, a successful read advances the cursor,
// and a failed read leaves it where it was.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, bytes.Repeat([]byte{0xff}, 7))
	f.Add([]byte{4, 4, 4}, []byte{0, 0, 0, 5, 'h', 'e', 'l', 'l', 'o', 0, 0, 0})
	f.Add([]byte{5, 3}, bytes.Repeat([]byte{0xff}, 256))
	f.Add([]byte{2, 2, 2}, []byte{0, 0, 0})
	f.Add([]byte{7, 7, 7}, []byte{0, 0, 0, 3, 'a', 'b', 'c', 0, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, script, data []byte) {
		d := NewDecoder(data)
		for _, op := range script {
			before := d.Offset()
			var err error
			switch op % 8 {
			case 0:
				_, err = d.Uint32()
			case 1:
				_, err = d.Int32()
			case 2:
				_, err = d.Uint64()
			case 3:
				_, err = d.Bool()
			case 4:
				_, err = d.Opaque()
			case 5:
				// Length byte comes from the script so the fuzzer can
				// aim it at the padding edge cases.
				_, err = d.FixedOpaque(int(op) % 97)
			case 6:
				_, err = d.String()
			case 7:
				_, err = d.OpaqueRef()
			}
			off := d.Offset()
			if off < 0 || off > len(data) {
				t.Fatalf("op %d: offset %d outside [0,%d]", op, off, len(data))
			}
			if off+d.Remaining() != len(data) {
				t.Fatalf("op %d: offset %d + remaining %d != len %d",
					op, off, d.Remaining(), len(data))
			}
			if err != nil {
				if off != before {
					t.Fatalf("op %d: failed read moved cursor %d -> %d", op, before, off)
				}
				return
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
		e.Int32(i32)
		e.Uint64(u64)
		e.Bool(b)
		e.Opaque(op)
		e.String(s)

		d := NewDecoder(e.Bytes())
		gu32, e1 := d.Uint32()
		gi32, e2 := d.Int32()
		gu64, e3 := d.Uint64()
		gb, e4 := d.Bool()
		gop, e5 := d.Opaque()
		gs, e6 := d.String()
		if err := Check(e1, e2, e3, e4, e5, e6); err != nil {
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
