package nfsproto

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/xdr"
)

func TestCallHeaderRoundTrip(t *testing.T) {
	e := xdr.NewEncoder(128)
	CallHeader{XID: 42, Proc: ProcWrite}.Encode(e)
	d := xdr.NewDecoder(e.Bytes())
	h, err := DecodeCall(d)
	if err != nil {
		t.Fatal(err)
	}
	if h.XID != 42 || h.Proc != ProcWrite {
		t.Fatalf("h = %+v", h)
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d", d.Remaining())
	}
}

func TestReplyHeaderRoundTrip(t *testing.T) {
	e := xdr.NewEncoder(64)
	ReplyHeader{XID: 7}.Encode(e)
	h, err := DecodeReply(xdr.NewDecoder(e.Bytes()))
	if err != nil || h.XID != 7 {
		t.Fatalf("h=%+v err=%v", h, err)
	}
}

func TestDecodeCallRejectsReply(t *testing.T) {
	e := xdr.NewEncoder(64)
	ReplyHeader{XID: 7}.Encode(e)
	if _, err := DecodeCall(xdr.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("expected error decoding reply as call")
	}
}

func TestDecodeReplyRejectsCall(t *testing.T) {
	e := xdr.NewEncoder(64)
	CallHeader{XID: 7, Proc: ProcWrite}.Encode(e)
	if _, err := DecodeReply(xdr.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("expected error decoding call as reply")
	}
}

func TestDecodeCallBadVersion(t *testing.T) {
	e := xdr.NewEncoder(64)
	e.Uint32(1) // xid
	e.Uint32(MsgCall)
	e.Uint32(RPCVersion)
	e.Uint32(ProgramNFS)
	e.Uint32(2) // NFSv2: not supported here
	e.Uint32(ProcWrite)
	e.Uint32(AuthNull)
	e.Uint32(0)
	e.Uint32(AuthNull)
	e.Uint32(0)
	if _, err := DecodeCall(xdr.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("expected version error")
	}
}

func TestWriteArgsRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte{0x5a}, 8192)
	a := &WriteArgs{
		File:   MakeFileHandle(1, 99),
		Offset: 12345,
		Count:  8192,
		Stable: Unstable,
		Data:   data,
	}
	e := xdr.NewEncoder(9000)
	a.Encode(e)
	got, err := DecodeWriteArgs(xdr.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.File != a.File || got.Offset != a.Offset || got.Count != a.Count ||
		got.Stable != a.Stable || !bytes.Equal(got.Data, a.Data) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestWriteResRoundTrip(t *testing.T) {
	r := &WriteRes{Status: NFS3OK, Count: 8192, Committed: FileSync, Verf: 0xfeed}
	e := xdr.NewEncoder(64)
	r.Encode(e)
	got, err := DecodeWriteRes(xdr.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got != *r {
		t.Fatalf("got %+v want %+v", got, r)
	}
}

func TestWriteResError(t *testing.T) {
	r := &WriteRes{Status: NFS3ErrIO}
	e := xdr.NewEncoder(64)
	r.Encode(e)
	got, err := DecodeWriteRes(xdr.NewDecoder(e.Bytes()))
	if err != nil || got.Status != NFS3ErrIO {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestCommitRoundTrip(t *testing.T) {
	a := &CommitArgs{File: MakeFileHandle(1, 2), Offset: 0, Count: 0}
	e := xdr.NewEncoder(64)
	a.Encode(e)
	got, err := DecodeCommitArgs(xdr.NewDecoder(e.Bytes()))
	if err != nil || got != *a {
		t.Fatalf("got %+v err %v", got, err)
	}
	r := &CommitRes{Status: NFS3OK, Verf: 0xbeef}
	e2 := xdr.NewEncoder(64)
	r.Encode(e2)
	gr, err := DecodeCommitRes(xdr.NewDecoder(e2.Bytes()))
	if err != nil || gr != *r {
		t.Fatalf("gr %+v err %v", gr, err)
	}
}

func TestCommitResError(t *testing.T) {
	r := &CommitRes{Status: NFS3ErrStale}
	e := xdr.NewEncoder(64)
	r.Encode(e)
	gr, err := DecodeCommitRes(xdr.NewDecoder(e.Bytes()))
	if err != nil || gr.Status != NFS3ErrStale {
		t.Fatalf("gr %+v err %v", gr, err)
	}
}

func TestReadArgsRoundTrip(t *testing.T) {
	a := &ReadArgs{File: MakeFileHandle(2, 17), Offset: 65536, Count: 8192}
	e := xdr.NewEncoder(64)
	a.Encode(e)
	got, err := DecodeReadArgs(xdr.NewDecoder(e.Bytes()))
	if err != nil || got != *a {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestReadArgsBadHandle(t *testing.T) {
	e := xdr.NewEncoder(64)
	e.Opaque([]byte{1, 2, 3})
	e.Uint64(0)
	e.Uint32(0)
	if _, err := DecodeReadArgs(xdr.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("expected handle-size error")
	}
}

func TestReadResRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte{0xa5}, 8192)
	r := &ReadRes{Status: NFS3OK, Count: 8192, EOF: true, Data: data}
	e := xdr.NewEncoder(9000)
	r.Encode(e)
	got, err := DecodeReadRes(xdr.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != r.Status || got.Count != r.Count || got.EOF != r.EOF ||
		!bytes.Equal(got.Data, r.Data) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadResError(t *testing.T) {
	r := &ReadRes{Status: NFS3ErrStale}
	e := xdr.NewEncoder(64)
	r.Encode(e)
	got, err := DecodeReadRes(xdr.NewDecoder(e.Bytes()))
	if err != nil || got.Status != NFS3ErrStale || got.Data != nil {
		t.Fatalf("got %+v err %v", got, err)
	}
}

func TestReadReplySizeMatchesEncoding(t *testing.T) {
	for _, n := range []int{0, 1, 4096, 8192} {
		r := &ReadRes{Status: NFS3OK, Count: uint32(n), Data: make([]byte, n)}
		e := xdr.NewEncoder(n + 256)
		ReplyHeader{XID: 1}.Encode(e)
		r.Encode(e)
		if e.Len() != ReadReplySize(n) {
			t.Fatalf("n=%d: encoded %d, ReadReplySize %d", n, e.Len(), ReadReplySize(n))
		}
	}
}

// An rsize READ reply must fragment on the wire like a wsize WRITE call:
// its payload exceeds one ethernet MTU by the data it carries.
func TestReadReplySizeIs8KPlusEnvelope(t *testing.T) {
	sz := ReadReplySize(8192)
	if sz <= 8192 || sz > 8192+300 {
		t.Fatalf("ReadReplySize(8192) = %d, want 8192 + small envelope", sz)
	}
}

func TestMakeFileHandleDistinct(t *testing.T) {
	a := MakeFileHandle(1, 1)
	b := MakeFileHandle(1, 2)
	c := MakeFileHandle(2, 1)
	if a == b || a == c || b == c {
		t.Fatal("handles collide")
	}
}

func TestWriteCallSizeMatchesEncoding(t *testing.T) {
	for _, n := range []int{0, 1, 4096, 8192} {
		a := &WriteArgs{File: MakeFileHandle(1, 1), Count: uint32(n), Data: make([]byte, n)}
		e := xdr.NewEncoder(n + 256)
		CallHeader{XID: 1, Proc: ProcWrite}.Encode(e)
		a.Encode(e)
		if e.Len() != WriteCallSize(n) {
			t.Fatalf("n=%d: encoded %d, WriteCallSize %d", n, e.Len(), WriteCallSize(n))
		}
	}
}

// An 8 KB WRITE over UDP must exceed one ethernet MTU (it fragments into
// ~6 packets on the paper's no-jumbo network).
func TestWriteCallSizeIs8KPlusEnvelope(t *testing.T) {
	sz := WriteCallSize(8192)
	if sz <= 8192 || sz > 8192+300 {
		t.Fatalf("WriteCallSize(8192) = %d, want 8192 + small envelope", sz)
	}
}

func TestStringers(t *testing.T) {
	if Unstable.String() != "UNSTABLE" || FileSync.String() != "FILE_SYNC" || DataSync.String() != "DATA_SYNC" {
		t.Fatal("StableHow strings wrong")
	}
	if StableHow(9).String() == "" || Status(12345).String() == "" {
		t.Fatal("unknown values should still format")
	}
	if NFS3OK.String() != "NFS3_OK" || NFS3ErrIO.String() != "NFS3ERR_IO" || NFS3ErrStale.String() != "NFS3ERR_STALE" || NFS3ErrJukebox.String() != "NFS3ERR_JUKEBOX" {
		t.Fatal("status strings wrong")
	}
}

// Property: WRITE args of any size round-trip and the envelope size
// formula holds.
func TestWriteArgsProperty(t *testing.T) {
	f := func(off uint64, data []byte, stable uint8) bool {
		a := &WriteArgs{
			File:   MakeFileHandle(3, 4),
			Offset: off,
			Count:  uint32(len(data)),
			Stable: StableHow(stable % 3),
			Data:   data,
		}
		e := xdr.NewEncoder(len(data) + 64)
		a.Encode(e)
		got, err := DecodeWriteArgs(xdr.NewDecoder(e.Bytes()))
		if err != nil {
			return false
		}
		return got.Offset == off && bytes.Equal(got.Data, data) && got.Stable == a.Stable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeWriteArgsBadHandle(t *testing.T) {
	e := xdr.NewEncoder(64)
	e.Opaque([]byte{1, 2, 3}) // wrong fh size
	e.Uint64(0)
	e.Uint32(0)
	e.Uint32(0)
	e.Opaque(nil)
	if _, err := DecodeWriteArgs(xdr.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("expected handle-size error")
	}
	e2 := xdr.NewEncoder(64)
	e2.Opaque([]byte{1, 2, 3})
	e2.Uint64(0)
	e2.Uint32(0)
	if _, err := DecodeCommitArgs(xdr.NewDecoder(e2.Bytes())); err == nil {
		t.Fatal("expected handle-size error")
	}
}
