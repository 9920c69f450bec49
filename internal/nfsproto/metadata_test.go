package nfsproto

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/xdr"
)

// codecCase is one message type in the parametrized XDR suite: encode
// produces the wire bytes, decode parses them and verifies the result
// matches what was encoded, returning the decoded status (args types
// report NFS3OK on success). The same table drives the round-trip,
// truncated-buffer, and garbage-input subtests for every procedure —
// the new metadata calls and the pre-existing WRITE/READ/COMMIT ones.
type codecCase struct {
	name   string
	encode func(e *xdr.Encoder)
	decode func(d *xdr.Decoder) (Status, error)
}

func codecCases() []codecCase {
	fh := MakeFileHandle(3, 77)
	dir := RootHandle(3)
	attrs := FileAttrs{Size: 1 << 20, FileID: 42, MTime: 987654321, Change: 17}
	wcc := WccData{
		HavePre:  true,
		Pre:      WccAttr{Size: 1 << 19, MTime: 123456789, Change: 16},
		HavePost: true,
		Post:     attrs,
	}
	data := bytes.Repeat([]byte{0xa5}, 1000)
	return []codecCase{
		{"getattr-args",
			func(e *xdr.Encoder) { (&GetattrArgs{File: fh}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeGetattrArgs(d)
				if err != nil {
					return 0, err
				}
				if got.File != fh {
					return 0, fmt.Errorf("file %v", got.File)
				}
				return NFS3OK, nil
			}},
		{"getattr-res-ok",
			func(e *xdr.Encoder) { (&GetattrRes{Status: NFS3OK, Attrs: attrs}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeGetattrRes(d)
				if err != nil {
					return 0, err
				}
				if got.Status == NFS3OK && got.Attrs != attrs {
					return 0, fmt.Errorf("attrs %+v", got.Attrs)
				}
				return got.Status, nil
			}},
		{"getattr-res-err",
			func(e *xdr.Encoder) { (&GetattrRes{Status: NFS3ErrStale}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeGetattrRes(d)
				if err != nil {
					return 0, err
				}
				return got.Status, nil
			}},
		{"lookup-args",
			func(e *xdr.Encoder) { (&LookupArgs{Dir: dir, Name: "f00042"}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeLookupArgs(d)
				if err != nil {
					return 0, err
				}
				if got.Dir != dir || got.Name != "f00042" {
					return 0, fmt.Errorf("got %+v", got)
				}
				return NFS3OK, nil
			}},
		{"lookup-res-ok",
			func(e *xdr.Encoder) { (&LookupRes{Status: NFS3OK, File: fh, Attrs: attrs}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeLookupRes(d)
				if err != nil {
					return 0, err
				}
				if got.Status == NFS3OK && (got.File != fh || got.Attrs != attrs) {
					return 0, fmt.Errorf("got %+v", got)
				}
				return got.Status, nil
			}},
		{"lookup-res-noent",
			func(e *xdr.Encoder) { (&LookupRes{Status: NFS3ErrNoEnt}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeLookupRes(d)
				if err != nil {
					return 0, err
				}
				return got.Status, nil
			}},
		{"create-args",
			func(e *xdr.Encoder) { (&CreateArgs{Dir: dir, Name: "fresh"}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeCreateArgs(d)
				if err != nil {
					return 0, err
				}
				if got.Dir != dir || got.Name != "fresh" {
					return 0, fmt.Errorf("got %+v", got)
				}
				return NFS3OK, nil
			}},
		{"create-res-ok",
			func(e *xdr.Encoder) { (&CreateRes{Status: NFS3OK, File: fh, Attrs: attrs}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeCreateRes(d)
				if err != nil {
					return 0, err
				}
				if got.Status == NFS3OK && (got.File != fh || got.Attrs != attrs) {
					return 0, fmt.Errorf("got %+v", got)
				}
				return got.Status, nil
			}},
		{"create-res-exist",
			func(e *xdr.Encoder) { (&CreateRes{Status: NFS3ErrExist}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeCreateRes(d)
				if err != nil {
					return 0, err
				}
				return got.Status, nil
			}},
		{"remove-args",
			func(e *xdr.Encoder) { (&RemoveArgs{Dir: dir, Name: "gone"}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeRemoveArgs(d)
				if err != nil {
					return 0, err
				}
				if got.Dir != dir || got.Name != "gone" {
					return 0, fmt.Errorf("got %+v", got)
				}
				return NFS3OK, nil
			}},
		{"remove-res",
			func(e *xdr.Encoder) { (&RemoveRes{Status: NFS3OK}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeRemoveRes(d)
				if err != nil {
					return 0, err
				}
				return got.Status, nil
			}},
		{"remove-res-wcc",
			func(e *xdr.Encoder) { (&RemoveRes{Status: NFS3OK, Wcc: wcc}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeRemoveRes(d)
				if err != nil {
					return 0, err
				}
				if got.Status == NFS3OK && got.Wcc != wcc {
					return 0, fmt.Errorf("wcc %+v", got.Wcc)
				}
				return got.Status, nil
			}},
		{"create-res-wcc",
			func(e *xdr.Encoder) { (&CreateRes{Status: NFS3OK, File: fh, Attrs: attrs, Wcc: wcc}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeCreateRes(d)
				if err != nil {
					return 0, err
				}
				if got.Status == NFS3OK && (got.File != fh || got.Attrs != attrs || got.Wcc != wcc) {
					return 0, fmt.Errorf("got %+v", got)
				}
				return got.Status, nil
			}},
		{"write-args",
			func(e *xdr.Encoder) {
				(&WriteArgs{File: fh, Offset: 8192, Count: 1000, Stable: Unstable, Data: data}).Encode(e)
			},
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeWriteArgs(d)
				if err != nil {
					return 0, err
				}
				if got.File != fh || got.Offset != 8192 || !bytes.Equal(got.Data, data) {
					return 0, fmt.Errorf("got %+v", got)
				}
				return NFS3OK, nil
			}},
		{"write-res",
			func(e *xdr.Encoder) {
				(&WriteRes{Status: NFS3OK, Count: 1000, Committed: FileSync, Verf: 0xbeef}).Encode(e)
			},
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeWriteRes(d)
				if err != nil {
					return 0, err
				}
				if got.Status == NFS3OK && (got.Count != 1000 || got.Verf != 0xbeef) {
					return 0, fmt.Errorf("got %+v", got)
				}
				return got.Status, nil
			}},
		{"write-res-wcc",
			func(e *xdr.Encoder) {
				(&WriteRes{Status: NFS3OK, Wcc: wcc, Count: 1000, Committed: FileSync, Verf: 0xbeef}).Encode(e)
			},
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeWriteRes(d)
				if err != nil {
					return 0, err
				}
				if got.Status == NFS3OK && (got.Count != 1000 || got.Wcc != wcc) {
					return 0, fmt.Errorf("got %+v", got)
				}
				return got.Status, nil
			}},
		{"write-res-wcc-pre-only",
			// A crashed-and-restarted server can supply pre-op attrs while
			// the post-op arm is absent; the optional arms must decode
			// independently.
			func(e *xdr.Encoder) {
				(&WriteRes{Status: NFS3ErrIO, Wcc: WccData{HavePre: true, Pre: wcc.Pre}}).Encode(e)
			},
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeWriteRes(d)
				if err != nil {
					return 0, err
				}
				if got.Wcc.HavePre != true || got.Wcc.HavePost || got.Wcc.Pre != wcc.Pre {
					return 0, fmt.Errorf("wcc %+v", got.Wcc)
				}
				return got.Status, nil
			}},
		{"read-args",
			func(e *xdr.Encoder) { (&ReadArgs{File: fh, Offset: 4096, Count: 8192}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeReadArgs(d)
				if err != nil {
					return 0, err
				}
				if got.File != fh || got.Offset != 4096 || got.Count != 8192 {
					return 0, fmt.Errorf("got %+v", got)
				}
				return NFS3OK, nil
			}},
		{"read-res",
			func(e *xdr.Encoder) {
				(&ReadRes{Status: NFS3OK, Count: 1000, EOF: true, Data: data}).Encode(e)
			},
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeReadRes(d)
				if err != nil {
					return 0, err
				}
				if got.Status == NFS3OK && (got.Count != 1000 || !got.EOF || !bytes.Equal(got.Data, data)) {
					return 0, fmt.Errorf("got %+v", got)
				}
				return got.Status, nil
			}},
		{"commit-args",
			func(e *xdr.Encoder) { (&CommitArgs{File: fh, Offset: 0, Count: 1 << 20}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeCommitArgs(d)
				if err != nil {
					return 0, err
				}
				if got.File != fh || got.Count != 1<<20 {
					return 0, fmt.Errorf("got %+v", got)
				}
				return NFS3OK, nil
			}},
		{"commit-res",
			func(e *xdr.Encoder) { (&CommitRes{Status: NFS3OK, Verf: 0xfeed}).Encode(e) },
			func(d *xdr.Decoder) (Status, error) {
				got, err := DecodeCommitRes(d)
				if err != nil {
					return 0, err
				}
				if got.Status == NFS3OK && got.Verf != 0xfeed {
					return 0, fmt.Errorf("got %+v", got)
				}
				return got.Status, nil
			}},
	}
}

func encodeCase(c codecCase) []byte {
	e := xdr.NewEncoder(2048)
	c.encode(e)
	return e.Bytes()
}

// TestCodecRoundTrip drives every procedure's args and reply through an
// encode/decode round trip and requires the decoder to consume the
// buffer exactly.
func TestCodecRoundTrip(t *testing.T) {
	for _, c := range codecCases() {
		t.Run(c.name, func(t *testing.T) {
			buf := encodeCase(c)
			d := xdr.NewDecoder(buf)
			if _, err := c.decode(d); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if d.Remaining() != 0 {
				t.Fatalf("decoder left %d bytes unread of %d", d.Remaining(), len(buf))
			}
		})
	}
}

// TestCodecTruncated feeds every strict prefix of every message to its
// decoder: all must fail cleanly (no panic, non-nil error) because each
// message needs exactly its full encoding.
func TestCodecTruncated(t *testing.T) {
	for _, c := range codecCases() {
		t.Run(c.name, func(t *testing.T) {
			buf := encodeCase(c)
			for n := 0; n < len(buf); n++ {
				if _, err := c.decode(xdr.NewDecoder(buf[:n])); err == nil {
					t.Fatalf("decode of %d/%d-byte prefix succeeded", n, len(buf))
				}
			}
		})
	}
}

// TestCodecGarbage feeds arbitrary non-message bytes to every decoder.
// A decoder must never panic; it must either report an error or — for
// reply types, whose leading word is a status discriminant — decode the
// garbage as a legal error reply (status != OK), never as a successful
// one.
func TestCodecGarbage(t *testing.T) {
	vectors := [][]byte{
		bytes.Repeat([]byte{0xff}, 7),   // huge lengths, odd size
		bytes.Repeat([]byte{0xff}, 256), // huge lengths, plenty of bytes
		{0, 0, 0},                       // too short for even one word
	}
	for _, c := range codecCases() {
		t.Run(c.name, func(t *testing.T) {
			for i, g := range vectors {
				st, err := c.decode(xdr.NewDecoder(g))
				if err == nil && st == NFS3OK {
					t.Fatalf("vector %d decoded garbage as a successful message", i)
				}
			}
		})
	}
}

// TestFileAttrsFullFattr3 pins the fattr3 wire size: the RFC's 21 XDR
// words (type, mode, nlink, uid, gid, size, used, rdev, fsid, fileid,
// three times) plus one hyper for the change counter = 92 bytes, so
// simulated GETATTR replies carry the real protocol's byte weight.
func TestFileAttrsFullFattr3(t *testing.T) {
	e := xdr.NewEncoder(128)
	a := FileAttrs{Size: 5, FileID: 6, MTime: 7, Change: 8}
	a.Encode(e)
	if got, want := len(e.Bytes()), 92; got != want {
		t.Fatalf("fattr3 encodes to %d bytes, want %d", got, want)
	}
	d := xdr.NewDecoder(e.Bytes())
	got := decodeFileAttrs(d)
	if err := d.Err(); err != nil || got != a {
		t.Fatalf("round trip: %+v err %v", got, err)
	}
}

// TestWccAttrWire pins wcc_attr at 24 bytes: size hyper, mtime nfstime3,
// and the change counter riding the ctime slot.
func TestWccAttrWire(t *testing.T) {
	e := xdr.NewEncoder(64)
	w := WccAttr{Size: 9, MTime: 3e9 + 14, Change: 21}
	w.Encode(e)
	if got, want := len(e.Bytes()), 24; got != want {
		t.Fatalf("wcc_attr encodes to %d bytes, want %d", got, want)
	}
	d := xdr.NewDecoder(e.Bytes())
	got := decodeWccAttr(d)
	if err := d.Err(); err != nil || got != w {
		t.Fatalf("round trip: %+v err %v", got, err)
	}
}

// TestRootHandleFSID pins the handle layout the server's per-export
// namespaces rely on: the fsid lands in the handle and HandleFSID
// recovers it, for root and regular handles alike.
func TestRootHandleFSID(t *testing.T) {
	for _, fsid := range []uint64{0, 1, 7, 1 << 40} {
		if got := HandleFSID(RootHandle(fsid)); got != fsid {
			t.Fatalf("HandleFSID(RootHandle(%d)) = %d", fsid, got)
		}
		if got := HandleFSID(MakeFileHandle(fsid, 999)); got != fsid {
			t.Fatalf("HandleFSID(MakeFileHandle(%d, 999)) = %d", fsid, got)
		}
	}
	if RootHandle(1) == MakeFileHandle(1, ServerFileIDBase) {
		t.Fatal("root handle collides with first server-minted handle")
	}
}
