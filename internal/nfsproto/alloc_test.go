package nfsproto

import (
	"testing"

	"repro/internal/racebuild"
	"repro/internal/xdr"
)

// Decoding runs once per RPC on both ends of the wire, so it must not
// allocate: the auth bodies are skipped in place, handles land in their
// arrays, payloads alias the buffer, and every args and result type comes
// back as a value.

// writeCall is an 8 KiB WRITE3 call as the client sends it.
func writeCall() (WriteArgs, []byte) {
	e := xdr.NewEncoder(9000)
	CallHeader{XID: 9, Proc: ProcWrite}.Encode(e)
	a := WriteArgs{File: MakeFileHandle(1, 2), Offset: 8192, Count: 8192, Stable: Unstable, Data: Zeroes(8192)}
	a.Encode(e)
	return a, e.Bytes()
}

// writeReply is a WRITE3 reply carrying both wcc_data arms.
func writeReply() (WriteRes, []byte) {
	e := xdr.NewEncoder(256)
	ReplyHeader{XID: 9}.Encode(e)
	r := WriteRes{
		Status: NFS3OK,
		Wcc: WccData{
			HavePre:  true,
			Pre:      WccAttr{Size: 8192, MTime: 1, Change: 1},
			HavePost: true,
			Post:     FileAttrs{Size: 16384, FileID: 2, MTime: 2, Change: 2},
		},
		Count: 8192, Committed: FileSync, Verf: 7,
	}
	r.Encode(e)
	return r, e.Bytes()
}

// getattrReply is a successful GETATTR3 reply.
func getattrReply() (GetattrRes, []byte) {
	e := xdr.NewEncoder(256)
	ReplyHeader{XID: 9}.Encode(e)
	r := GetattrRes{Status: NFS3OK, Attrs: FileAttrs{Size: 16384, FileID: 2, MTime: 2, Change: 2}}
	r.Encode(e)
	return r, e.Bytes()
}

func TestWriteCallDecodeAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	want, msg := writeCall()
	var d xdr.Decoder
	var got WriteArgs
	decode := func() {
		d.Reset(msg)
		h, err := DecodeCall(&d)
		if err != nil || h.Proc != ProcWrite {
			t.Fatalf("header %+v: %v", h, err)
		}
		if got, err = DecodeWriteArgs(&d); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Fatalf("a WRITE3 call decode costs %.2f allocations", n)
	}
	if got.File != want.File || got.Offset != want.Offset || got.Count != want.Count || len(got.Data) != 8192 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestWriteReplyDecodeAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	want, msg := writeReply()
	var d xdr.Decoder
	var got WriteRes
	decode := func() {
		d.Reset(msg)
		h, err := DecodeReply(&d)
		if err != nil || h.XID != 9 {
			t.Fatalf("header %+v: %v", h, err)
		}
		if got, err = DecodeWriteRes(&d); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Fatalf("a WRITE3 reply decode costs %.2f allocations", n)
	}
	if got != want {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestCodecAllocations pins every procedure's args and result decode at
// zero allocations, except for the one string each of LOOKUP, CREATE and
// REMOVE copies its name into.
func TestCodecAllocations(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	names := map[string]bool{"lookup-args": true, "create-args": true, "remove-args": true}
	var d xdr.Decoder
	for _, c := range codecCases() {
		t.Run(c.name, func(t *testing.T) {
			msg := encodeCase(c)
			n := testing.AllocsPerRun(100, func() {
				d.Reset(msg)
				if _, err := c.decode(&d); err != nil {
					t.Fatal(err)
				}
			})
			want := 0.0
			if names[c.name] {
				want = 1
			}
			if n != want {
				t.Fatalf("decode costs %.2f allocations, want %.0f", n, want)
			}
		})
	}
}

func BenchmarkWriteCallDecode(b *testing.B) {
	_, msg := writeCall()
	var d xdr.Decoder
	b.ReportAllocs()
	for b.Loop() {
		d.Reset(msg)
		if _, err := DecodeCall(&d); err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeWriteArgs(&d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteReplyDecode(b *testing.B) {
	_, msg := writeReply()
	var d xdr.Decoder
	b.ReportAllocs()
	for b.Loop() {
		d.Reset(msg)
		if _, err := DecodeReply(&d); err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeWriteRes(&d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetattrReplyDecode(b *testing.B) {
	_, msg := getattrReply()
	var d xdr.Decoder
	b.ReportAllocs()
	for b.Loop() {
		d.Reset(msg)
		if _, err := DecodeReply(&d); err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeGetattrRes(&d); err != nil {
			b.Fatal(err)
		}
	}
}
