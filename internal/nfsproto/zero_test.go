package nfsproto

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"testing"

	"repro/internal/xdr"
)

// litter leaves nonzero bytes in a pooled wire buffer, by one of the
// ways a transport can: a buffer filled and recycled bare, or an encoder
// that carried a junk payload, released or taken and recycled.
func litter(r *rand.Rand, junk []byte) {
	n := r.IntN(len(junk))
	switch r.IntN(3) {
	case 0:
		b := xdr.AcquireBuffer(n)
		copy(b, junk)
		xdr.RecycleBuffer(b)
	case 1:
		e := xdr.AcquireEncoder()
		e.Grow(xdr.OpaqueLen(n))
		e.Opaque(junk[:n])
		e.Release()
	case 2:
		e := xdr.AcquireEncoder()
		e.Opaque(junk[:n])
		xdr.RecycleBuffer(e.Take())
	}
}

// WRITE3 calls and READ3 replies whose payload is the zero page encode,
// in pooled buffers that earlier messages left dirty, to exactly the
// bytes of the same messages carrying a plain zero slice in a fresh
// encoder: for every payload length up to 70,000 bytes, so both buffer
// size classes and every padding.
func TestZeroPayloadsEncodeByteExact(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool shard
	r := rand.New(rand.NewPCG(5, 6))
	junk := make([]byte, 9000)
	for i := range junk {
		junk[i] = byte(r.IntN(255) + 1)
	}
	const most = 70000
	plain := make([]byte, most)
	fh := MakeFileHandle(1, 2)
	check := func(n int, what string, encode func(*xdr.Encoder, []byte)) {
		t.Helper()
		litter(r, junk)
		e := xdr.AcquireEncoder()
		encode(e, xdr.Zeroes(n))
		ref := xdr.NewEncoder(0)
		encode(ref, plain[:n])
		if !bytes.Equal(e.Bytes(), ref.Bytes()) {
			t.Fatalf("%s of %d bytes from the zero page differs from a plain zero payload", what, n)
		}
		e.Release()
	}
	for n := 0; n <= most; n++ {
		check(n, "WRITE3 call", func(e *xdr.Encoder, data []byte) {
			CallHeader{XID: uint32(n), Proc: ProcWrite}.Encode(e)
			a := WriteArgs{File: fh, Offset: uint64(n), Count: uint32(n), Stable: Unstable, Data: data}
			a.Encode(e)
		})
		check(n, "READ3 reply", func(e *xdr.Encoder, data []byte) {
			ReplyHeader{XID: uint32(n)}.Encode(e)
			res := ReadRes{Status: NFS3OK, Count: uint32(n), EOF: n%2 == 1, Data: data}
			res.Encode(e)
		})
	}
}
