package nfsproto

import (
	"testing"

	"repro/internal/racebuild"
	"repro/internal/xdr"
)

// The WRITE3 decode path runs once per 8 KB on both ends of the wire, so
// it must not allocate: the auth bodies are skipped in place, the handle
// lands in its array, the payload aliases the buffer, and the args and
// result come back as values.

func TestWriteCallDecodeAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := xdr.NewEncoder(9000)
	CallHeader{XID: 9, Proc: ProcWrite}.Encode(e)
	want := WriteArgs{File: MakeFileHandle(1, 2), Offset: 8192, Count: 8192, Stable: Unstable, Data: Zeroes(8192)}
	want.Encode(e)
	msg := e.Bytes()
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
	e := xdr.NewEncoder(256)
	ReplyHeader{XID: 9}.Encode(e)
	want := WriteRes{
		Status: NFS3OK,
		Wcc: WccData{
			HavePre:  true,
			Pre:      WccAttr{Size: 8192, MTime: 1, Change: 1},
			HavePost: true,
			Post:     FileAttrs{Size: 16384, FileID: 2, MTime: 2, Change: 2},
		},
		Count: 8192, Committed: FileSync, Verf: 7,
	}
	want.Encode(e)
	msg := e.Bytes()
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
