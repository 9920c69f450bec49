package rpcsim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// The list of calls in flight answers like a map of them under any
// order of replies: XIDs are issued in sequence while at most slots are
// in flight, and the calls leave in random order, so some stay in while
// hundreds of later XIDs pass. The list runs in strictly increasing XID
// order both ways, holds exactly the calls in flight, and the XIDs that
// already left, were never issued or lie in the future are not found,
// also once the XIDs wrap around.
func TestInFlightListMatchesLiveCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		slots int
		first uint32
	}{{1, 0}, {3, 0}, {16, 0}, {100, 0}, {16, math.MaxUint32 - 20_000}} {
		slots := c.slots
		tr := new(Transport)
		var live []*pendingCall
		byXID := map[uint32]*pendingCall{}
		next := c.first
		for step := 0; step < 50_000; step++ {
			if len(live) < slots && (len(live) == 0 || rng.Intn(2) == 0) {
				next++
				if rng.Intn(8) == 0 {
					next++ // leave an XID between live calls never issued
				}
				pc := &pendingCall{xid: next}
				tr.enlist(pc)
				live = append(live, pc)
				byXID[pc.xid] = pc
			} else {
				i := rng.Intn(len(live))
				pc := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				delete(byXID, pc.xid)
				tr.unslot(pc)
				n := tr.inflight
				if tr.unslot(pc); tr.inflight != n || tr.find(pc.xid) != nil {
					t.Fatalf("slots %d: xid %d still in flight after it left", slots, pc.xid)
				}
			}
			for xid, pc := range byXID {
				if tr.find(xid) != pc {
					t.Fatalf("slots %d, step %d: xid %d not found", slots, step, xid)
				}
			}
			probes := []uint32{next + 1, next + 2, uint32(rng.Intn(int(next) + 1))}
			if len(live) > 0 {
				probes = append(probes, live[rng.Intn(len(live))].xid-1)
			}
			for _, xid := range probes {
				if pc := tr.find(xid); pc != byXID[xid] {
					t.Fatalf("slots %d, step %d: xid %d found call %d", slots, step, xid, pc.xid)
				}
			}
			if err := checkList(tr); err != nil {
				t.Fatalf("slots %d, step %d: %v", slots, step, err)
			}
		}
	}
}

// checkList walks t's list of calls in flight both ways: the XIDs
// strictly increase from the oldest, the back links mirror the forward
// ones, and the list holds inflight calls.
func checkList(t *Transport) error {
	n := 0
	var prev *pendingCall
	for pc := t.oldest; pc != nil; pc = pc.next {
		if pc.prev != prev {
			return fmt.Errorf("xid %d links back to the wrong call", pc.xid)
		}
		if prev != nil && int32(pc.xid-prev.xid) <= 0 {
			return fmt.Errorf("xid %d follows xid %d", pc.xid, prev.xid)
		}
		prev = pc
		n++
	}
	if t.newest != prev {
		return fmt.Errorf("the newest call is not the list's last")
	}
	if n != t.inflight {
		return fmt.Errorf("the list holds %d calls, %d are in flight", n, t.inflight)
	}
	return nil
}

// A call a dead server leaves unanswered is abandoned (SetMaxRetries):
// it leaves the list, and once the server has released its copies the
// record goes back to the stock bound to no transport and linked to no
// call.
func TestAbandonedCallRecordLeavesUnbound(t *testing.T) {
	s := sim.New(7)
	net := netsim.New(s)
	net.AddHost("c", stormLink, nil)
	net.AddHost("srv", stormLink, func(dg netsim.Datagram) { dg.Owner.Release(dg.Payload) })
	tr := New(s, net, s.NewCPUPool(2), s.NewMutex("bkl"), DefaultConfig(), "c", "srv")
	tr.initRTO = 10 * time.Millisecond
	tr.SetMaxRetries(2)
	s.Go("caller", func(p *sim.Proc) {
		for range 3 {
			tr.Call(p, procNull, nullArgs, nil)
		}
	})
	defer s.Close()
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		s.Run(time.Minute)
	}()
	if !strings.Contains(msg, "xid 1 gave up") {
		t.Fatalf("the run ended with %q, not the first call abandoned", msg)
	}
	if err := checkList(tr); err != nil {
		t.Fatal(err)
	}
	if tr.InFlight() != 2 {
		t.Fatalf("%d calls in flight, want the two the abandoned one did not take", tr.InFlight())
	}
	stocked, err := tr.StockedCalls()
	if err != nil {
		t.Fatal(err)
	}
	if stocked == 0 {
		t.Fatal("the abandoned call's record did not go back to the stock")
	}
}
