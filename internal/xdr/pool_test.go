package xdr

import (
	"testing"

	"repro/internal/racebuild"
)

func TestAcquireBufferLength(t *testing.T) {
	for _, n := range []int{0, 20, 1472, 8300} {
		b := AcquireBuffer(n)
		if len(b) != n {
			t.Fatalf("AcquireBuffer(%d) has length %d", n, len(b))
		}
		RecycleBuffer(b)
	}
}

// Recycled buffers, and the encoders that carry them through the pool,
// come back without allocating: neither Release nor RecycleBuffer boxes a
// slice header into the pool.
func TestPoolRoundTripsAllocateNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	RecycleBuffer(make([]byte, 0, 9000))
	roundTrip := func() {
		e := AcquireEncoder()
		e.Uint32(7)
		e.Release()
		b := AcquireBuffer(8300)
		RecycleBuffer(b)
	}
	roundTrip()
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Fatalf("pool round trip costs %.2f allocations", n)
	}
}
