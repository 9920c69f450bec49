package rpcsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// stormServer is a stub server front-end that keeps the ownership
// protocol of the real one: each request copy it receives waits in its
// queue until a worker serves it and then releases it, a crash releases
// every queued copy, and a copy that arrives while it is down is released
// at once. It answers a call only once the call's third or fourth
// transmission has arrived (two or three retransmits), and then from the
// oldest queued copy, so the reply usually lands while younger copies of
// the same call still wait in the queue.
type stormServer struct {
	t       *testing.T
	s       *sim.Sim
	net     *netsim.Network
	queue   []netsim.Datagram
	wake    *sim.WaitQueue
	down    bool
	arrived map[uint32]int
	served  int
	// want is the request each xid must carry, byte for byte.
	want map[uint32][]byte
}

const stormService = 300 * time.Microsecond

func newStormServer(t *testing.T, s *sim.Sim, net *netsim.Network) *stormServer {
	ss := &stormServer{t: t, s: s, net: net, wake: s.NewWaitQueue(),
		arrived: map[uint32]int{}, want: map[uint32][]byte{}}
	net.AddHost("srv", stormLink, func(dg netsim.Datagram) {
		if ss.down {
			dg.Owner.Release(dg.Payload)
			return
		}
		ss.arrived[xidOf(dg.Payload)]++
		ss.queue = append(ss.queue, dg)
		ss.wake.Signal()
	})
	s.Go("storm-worker", ss.worker)
	return ss
}

var stormLink = netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}

func xidOf(payload []byte) uint32 { return xdr.NewDecoder(payload).Uint32() }

// ready reports whether a call has been retransmitted enough to answer.
func (ss *stormServer) ready(xid uint32) bool {
	return ss.arrived[xid] >= 3+int(xid%2)
}

func (ss *stormServer) worker(p *sim.Proc) {
	for {
		i := -1
		for i < 0 {
			for j, dg := range ss.queue {
				if ss.ready(xidOf(dg.Payload)) {
					i = j
					break
				}
			}
			if i < 0 {
				ss.wake.Wait(p)
			}
		}
		dg := ss.queue[i]
		ss.queue = append(ss.queue[:i], ss.queue[i+1:]...)
		p.Sleep(stormService)
		xid := xidOf(dg.Payload)
		if !bytes.Equal(dg.Payload, ss.want[xid]) {
			ss.t.Errorf("xid %d: served request differs from what the client encoded", xid)
		}
		ss.served++
		dg.Owner.Release(dg.Payload)
		if ss.down {
			continue // crashed mid-service: the reply is lost
		}
		e := xdr.AcquireEncoder()
		nfsproto.ReplyHeader{XID: xid}.Encode(e)
		reply := e.Take()
		if ss.net.Send(netsim.Datagram{From: "srv", To: "c", Payload: reply, Owner: xdr.Recycler{}}).Dropped {
			xdr.RecycleBuffer(reply)
		}
	}
}

// crash takes the stub down, releasing every queued copy.
func (ss *stormServer) crash() {
	ss.down = true
	for _, dg := range ss.queue {
		dg.Owner.Release(dg.Payload)
	}
	ss.queue = ss.queue[:0]
}

// queued reports whether a copy of xid waits in the queue.
func (ss *stormServer) queued(xid uint32) bool {
	for _, dg := range ss.queue {
		if xidOf(dg.Payload) == xid {
			return true
		}
	}
	return false
}

// TestRetransmitStormOwnsBuffers drives calls through a server that
// answers each only after two or three retransmits, alone, across a
// server crash with requests queued, and across a link that goes down
// with datagrams in flight. Every request buffer must be recycled exactly
// once, never while a copy of it is still queued, and every copy the
// server serves must match what the client encoded for its xid, although
// later calls reuse the recycled buffers. Recycled buffers are poisoned,
// so a copy served from a buffer recycled too early fails the comparison.
func TestRetransmitStormOwnsBuffers(t *testing.T) {
	for _, fault := range []string{"none", "crash", "link-down"} {
		t.Run(fault, func(t *testing.T) {
			s := sim.New(7)
			net := netsim.New(s)
			net.AddHost("c", stormLink, nil)
			ss := newStormServer(t, s, net)
			cfg := DefaultConfig()
			cfg.MaxSlots = 4
			tr := New(s, net, s.NewCPUPool(2), s.NewMutex("bkl"), cfg, "c", "srv")
			tr.initRTO = time.Millisecond
			stocked := len(tr.stock.free) // records an earlier simulation handed on

			recycled := map[uint32]int{}
			freed := map[*byte]bool{}
			tr.recycled = func(xid uint32, payload []byte) {
				recycled[xid]++
				if ss.queued(xid) {
					t.Errorf("xid %d recycled while a copy is still queued", xid)
				}
				freed[&payload[0]] = true
				for i := range payload {
					payload[i] = 0xee
				}
			}
			reused := 0
			encode := func(i int) func(*xdr.Encoder) {
				return func(e *xdr.Encoder) {
					body := make([]byte, 8192)
					for j := range body {
						body[j] = byte(i + j)
					}
					e.Grow(xdr.OpaqueLen(len(body))) // from the pool, like WriteArgs
					e.Opaque(body)
					b := e.Bytes()
					xid := xidOf(b)
					ss.want[xid] = append([]byte(nil), b...)
					if freed[&b[0]] {
						reused++
					}
				}
			}

			const callers, perCaller = 4, 12
			const calls = callers * perCaller
			completed := make([]int, calls)
			for c := 0; c < callers; c++ {
				s.Go(fmt.Sprintf("caller%d", c), func(p *sim.Proc) {
					for j := 0; j < perCaller; j++ {
						i := c*perCaller + j
						tr.Call(p, procNull, encode(i), func(*xdr.Decoder) { completed[i]++ })
						p.Sleep(100 * time.Microsecond)
					}
				})
			}
			switch fault {
			case "crash":
				s.At(5*time.Millisecond, func() {
					if len(ss.queue) == 0 {
						t.Error("nothing queued at the crash")
					}
					ss.crash()
				})
				s.At(12*time.Millisecond, func() { ss.down = false })
			case "link-down":
				s.At(5*time.Millisecond, func() { net.SetDown("srv", true) })
				s.At(12*time.Millisecond, func() { net.SetDown("srv", false) })
			}
			s.Run(10 * time.Second)

			for i, n := range completed {
				if n != 1 {
					t.Fatalf("call %d completed %d times", i, n)
				}
			}
			st := tr.Stats()
			if st.Replies != calls || tr.InFlight() != 0 {
				t.Fatalf("stats %+v, %d in flight", st, tr.InFlight())
			}
			if st.Retransmits < 2*calls {
				t.Fatalf("%d retransmits for %d calls; the storm did not happen", st.Retransmits, calls)
			}
			for xid := uint32(1); xid <= calls; xid++ {
				if recycled[xid] != 1 {
					t.Errorf("xid %d recycled %d times, want once", xid, recycled[xid])
				}
			}
			if len(ss.queue) != 0 {
				t.Fatalf("%d copies left queued", len(ss.queue))
			}
			if reused == 0 {
				t.Fatal("no call reused a recycled buffer; the test proves nothing")
			}
			if n := len(tr.stock.free); n == 0 || n < stocked || n-stocked > calls {
				t.Fatalf("%d call records in the stock, %d before the run", n, stocked)
			}
			if fault == "link-down" && net.HostStats("srv").LostDatagrams == 0 {
				t.Fatal("no datagram was in flight when the link went down")
			}
			t.Logf("%s: %d calls, %d retransmits, %d duplicate replies, %d copies served, %d buffers reused",
				fault, calls, st.Retransmits, st.DuplicateReplies, ss.served, reused)
		})
	}
}
