package xdr

import (
	"runtime"
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

// drainPools empties both size classes, so a test sees only the buffers
// it recycles itself.
func drainPools() {
	for i := range full {
		for full[i].Get() != nil {
		}
	}
}

// A recycled ACK-sized buffer sits in the small class: a request for an
// 8300-byte call neither takes it nor throws it away, and the next small
// request gets it back.
func TestSmallBufferSurvivesLargeRequest(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, one pool shard
	drainPools()
	small := make([]byte, 20)
	RecycleBuffer(small)
	big := AcquireBuffer(8300)
	if len(big) != 8300 || cap(big) < 8300 {
		t.Fatalf("AcquireBuffer(8300) has length %d, capacity %d", len(big), cap(big))
	}
	if got := AcquireBuffer(20); &got[0] != &small[0] {
		t.Fatal("an 8300-byte request consumed the recycled 20-byte buffer")
	}
}

// The transports' mix of sizes, an ACK, a full Ethernet segment and an
// 8 KB call or record, plus an encoder that grows from its small pooled
// buffer to a whole WRITE call, allocates nothing once each class holds
// buffers that fit.
func TestMixedSizesAllocateNothingOnceWarm(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	payload := make([]byte, 8300)
	rotate := func() {
		for _, n := range []int{20, 1472, 8300} {
			b := AcquireBuffer(n)
			if len(b) != n {
				t.Fatalf("AcquireBuffer(%d) has length %d", n, len(b))
			}
			RecycleBuffer(b)
		}
		e := AcquireEncoder()
		e.Uint32(1)
		e.Grow(OpaqueLen(len(payload)))
		e.Opaque(payload)
		if e.Len() != 4+OpaqueLen(len(payload)) {
			t.Fatalf("encoded %d bytes", e.Len())
		}
		e.Release()
	}
	for i := 0; i < 4; i++ {
		rotate()
	}
	if n := testing.AllocsPerRun(100, rotate); n != 0 {
		t.Fatalf("a warm acquire-recycle rotation costs %.2f allocations", n)
	}
}
