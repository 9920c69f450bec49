package nfsproto

import (
	"bytes"
	"testing"

	"repro/internal/xdr"
)

// The fuzz targets check two properties on arbitrary bytes:
//
//  1. No decoder panics or over-reads — every malformed input is turned
//     into an error (PR 6's garbage-vector tests, generalized).
//  2. Canonicalization is idempotent: if garbage happens to decode,
//     re-encoding the decoded message and decoding again must succeed
//     and reproduce the same bytes. (The first re-encode may legally
//     differ from the input: decoders tolerate foreign auth blobs and
//     nonzero opaque padding that encoders always write canonically.)

// encoder is any args/res message; all nfsproto messages append
// themselves to an *xdr.Encoder.
type encoder interface{ Encode(e *xdr.Encoder) }

// decodeArgsFor dispatches to the per-procedure call-args decoder.
func decodeArgsFor(proc uint32, d *xdr.Decoder) (encoder, bool, error) {
	switch proc {
	case ProcWrite:
		a, err := DecodeWriteArgs(d)
		return &a, true, err
	case ProcRead:
		a, err := DecodeReadArgs(d)
		return &a, true, err
	case ProcCommit:
		a, err := DecodeCommitArgs(d)
		return &a, true, err
	case ProcGetattr:
		a, err := DecodeGetattrArgs(d)
		return &a, true, err
	case ProcLookup:
		a, err := DecodeLookupArgs(d)
		return &a, true, err
	case ProcCreate:
		a, err := DecodeCreateArgs(d)
		return &a, true, err
	case ProcRemove:
		a, err := DecodeRemoveArgs(d)
		return &a, true, err
	}
	return nil, false, nil
}

// decodeResFor dispatches to the per-procedure reply-result decoder.
func decodeResFor(proc uint32, d *xdr.Decoder) (encoder, bool, error) {
	switch proc {
	case ProcWrite:
		r, err := DecodeWriteRes(d)
		return &r, true, err
	case ProcRead:
		r, err := DecodeReadRes(d)
		return &r, true, err
	case ProcCommit:
		r, err := DecodeCommitRes(d)
		return &r, true, err
	case ProcGetattr:
		r, err := DecodeGetattrRes(d)
		return &r, true, err
	case ProcLookup:
		r, err := DecodeLookupRes(d)
		return &r, true, err
	case ProcCreate:
		r, err := DecodeCreateRes(d)
		return &r, true, err
	case ProcRemove:
		r, err := DecodeRemoveRes(d)
		return &r, true, err
	}
	return nil, false, nil
}

// garbageSeeds are PR 6's hand-written garbage-decode vectors, promoted
// to fuzz corpus entries.
func garbageSeeds() [][]byte {
	return [][]byte{
		bytes.Repeat([]byte{0xff}, 7),
		bytes.Repeat([]byte{0xff}, 256),
		{0, 0, 0},
	}
}

func FuzzDecodeCall(f *testing.F) {
	fh := MakeFileHandle(3, 77)
	seeds := []struct {
		h    CallHeader
		body encoder
	}{
		{CallHeader{XID: 1, Proc: ProcWrite}, &WriteArgs{File: fh, Offset: 4096, Count: 5, Stable: Unstable, Data: []byte("hello")}},
		{CallHeader{XID: 2, Proc: ProcRead}, &ReadArgs{File: fh, Offset: 0, Count: 32768}},
		{CallHeader{XID: 3, Proc: ProcCommit}, &CommitArgs{File: fh, Offset: 0, Count: 0}},
		{CallHeader{XID: 4, Proc: ProcGetattr}, &GetattrArgs{File: fh}},
		{CallHeader{XID: 5, Proc: ProcLookup}, &LookupArgs{Dir: RootHandle(3), Name: "f00042"}},
		{CallHeader{XID: 6, Proc: ProcCreate}, &CreateArgs{Dir: RootHandle(3), Name: "fresh"}},
		{CallHeader{XID: 7, Proc: ProcRemove}, &RemoveArgs{Dir: RootHandle(3), Name: "gone"}},
	}
	for _, s := range seeds {
		e := xdr.NewEncoder(256)
		s.h.Encode(e)
		s.body.Encode(e)
		f.Add(append([]byte(nil), e.Bytes()...))
	}
	for _, g := range garbageSeeds() {
		f.Add(g)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := xdr.NewDecoder(data)
		h, err := DecodeCall(d)
		if err != nil {
			return
		}
		args, known, err := decodeArgsFor(h.Proc, d)
		if !known || err != nil {
			return
		}
		e1 := xdr.NewEncoder(len(data))
		h.Encode(e1)
		args.Encode(e1)
		canon := append([]byte(nil), e1.Bytes()...)

		d2 := xdr.NewDecoder(canon)
		h2, err := DecodeCall(d2)
		if err != nil {
			t.Fatalf("canonical call header does not re-decode: %v", err)
		}
		args2, _, err := decodeArgsFor(h2.Proc, d2)
		if err != nil {
			t.Fatalf("canonical proc=%d args do not re-decode: %v", h2.Proc, err)
		}
		if d2.Remaining() != 0 {
			t.Fatalf("canonical call left %d undecoded bytes", d2.Remaining())
		}
		e2 := xdr.NewEncoder(len(canon))
		h2.Encode(e2)
		args2.Encode(e2)
		if !bytes.Equal(canon, e2.Bytes()) {
			t.Fatalf("canonicalization not idempotent:\n first %x\nsecond %x", canon, e2.Bytes())
		}
	})
}

func FuzzDecodeReply(f *testing.F) {
	fh := MakeFileHandle(3, 77)
	attrs := FileAttrs{Size: 1 << 20, FileID: 42, MTime: 987654321, Change: 17}
	wcc := WccData{HavePre: true, Pre: WccAttr{Size: 1 << 19, MTime: 123456789, Change: 16}, HavePost: true, Post: attrs}
	seeds := []struct {
		proc uint32
		body encoder
	}{
		{ProcWrite, &WriteRes{Status: NFS3OK, Count: 5, Committed: FileSync, Verf: 0xdead}},
		{ProcWrite, &WriteRes{Status: NFS3OK, Wcc: wcc, Count: 5, Committed: FileSync, Verf: 0xdead}},
		{ProcWrite, &WriteRes{Status: NFS3ErrJukebox}},
		{ProcRead, &ReadRes{Status: NFS3OK, Count: 5, EOF: true, Data: []byte("hello")}},
		{ProcCommit, &CommitRes{Status: NFS3OK, Verf: 0xbeef}},
		{ProcGetattr, &GetattrRes{Status: NFS3OK, Attrs: attrs}},
		{ProcLookup, &LookupRes{Status: NFS3ErrNoEnt}},
		{ProcCreate, &CreateRes{Status: NFS3OK, File: fh, Attrs: attrs, Wcc: wcc}},
		{ProcRemove, &RemoveRes{Status: NFS3OK, Wcc: wcc}},
	}
	for i, s := range seeds {
		e := xdr.NewEncoder(256)
		ReplyHeader{XID: uint32(i + 1)}.Encode(e)
		s.body.Encode(e)
		f.Add(s.proc, append([]byte(nil), e.Bytes()...))
	}
	for _, g := range garbageSeeds() {
		f.Add(uint32(ProcWrite), g)
	}
	f.Fuzz(func(t *testing.T, proc uint32, data []byte) {
		d := xdr.NewDecoder(data)
		h, err := DecodeReply(d)
		if err != nil {
			return
		}
		res, known, err := decodeResFor(proc, d)
		if !known || err != nil {
			return
		}
		e1 := xdr.NewEncoder(len(data))
		h.Encode(e1)
		res.Encode(e1)
		canon := append([]byte(nil), e1.Bytes()...)

		d2 := xdr.NewDecoder(canon)
		h2, err := DecodeReply(d2)
		if err != nil {
			t.Fatalf("canonical reply header does not re-decode: %v", err)
		}
		res2, _, err := decodeResFor(proc, d2)
		if err != nil {
			t.Fatalf("canonical proc=%d result does not re-decode: %v", proc, err)
		}
		if d2.Remaining() != 0 {
			t.Fatalf("canonical reply left %d undecoded bytes", d2.Remaining())
		}
		e2 := xdr.NewEncoder(len(canon))
		h2.Encode(e2)
		res2.Encode(e2)
		if !bytes.Equal(canon, e2.Bytes()) {
			t.Fatalf("canonicalization not idempotent:\n first %x\nsecond %x", canon, e2.Bytes())
		}
	})
}
