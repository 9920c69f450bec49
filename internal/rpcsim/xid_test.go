package rpcsim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/xdr"
)

// The XID index answers like a map of the calls in flight under any
// order of replies: XIDs are issued in sequence while at most slots are
// in flight, and the calls leave in random order, so some stay in while
// hundreds of later XIDs pass and probe runs wrap around the table.
// Every entry holds its own call's XID, and the XIDs that already left
// or are not issued yet are not found.
func TestXIDIndexMatchesLiveCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, slots := range []int{1, 3, 16, 100} {
		x := new(callRecords).xidIndex(slots)
		var live []*pendingCall
		byXID := map[uint32]*pendingCall{}
		var next uint32
		wrapped := false
		for step := 0; step < 50_000; step++ {
			if len(live) < slots && (len(live) == 0 || rng.Intn(2) == 0) {
				next++
				pc := &pendingCall{xid: next}
				x.insert(pc)
				live = append(live, pc)
				byXID[pc.xid] = pc
			} else {
				i := rng.Intn(len(live))
				pc := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				delete(byXID, pc.xid)
				if !x.remove(pc) {
					t.Fatalf("slots %d: xid %d was not in the index", slots, pc.xid)
				}
				if x.remove(pc) || x.find(pc.xid) != nil {
					t.Fatalf("slots %d: xid %d still in the index after its removal", slots, pc.xid)
				}
			}
			for xid, pc := range byXID {
				if x.find(xid) != pc {
					t.Fatalf("slots %d, step %d: xid %d not found", slots, step, xid)
				}
			}
			for _, xid := range []uint32{next + 1, next + 1 + x.mask, uint32(rng.Intn(int(next) + 1))} {
				if pc := x.find(xid); pc != byXID[xid] {
					t.Fatalf("slots %d, step %d: xid %d found call %d", slots, step, xid, pc.xid)
				}
			}
			held := 0
			for i, e := range x.tab {
				if e.pc == nil {
					continue
				}
				held++
				if e.xid != e.pc.xid {
					t.Fatalf("slots %d: entry holds xid %d beside call %d", slots, e.xid, e.pc.xid)
				}
				if home := e.xid & x.mask; uint32(i) < home {
					wrapped = true
				}
			}
			if held != len(byXID) {
				t.Fatalf("slots %d: the table holds %d calls, %d are in flight", slots, held, len(byXID))
			}
		}
		if !wrapped && slots > 1 {
			t.Fatalf("slots %d: no probe run wrapped around the end of the table", slots)
		}
	}
}

// Closing a simulation takes back its transports' XID tables: a call
// the server never answered leaves no entry behind, and the next
// simulation's transport is lent the same table, empty.
func TestClosedSimulationReclaimsXIDTables(t *testing.T) {
	r := newRig(t, DefaultConfig(), 0, 1<<30) // the responder answers nothing
	r.s.Go("caller", func(p *sim.Proc) {
		r.tr.Call(p, procNull, nullArgs, func(*xdr.Decoder) {})
	})
	r.s.Run(100 * time.Millisecond)
	if r.tr.InFlight() != 1 {
		t.Fatalf("%d calls in flight, want the unanswered one", r.tr.InFlight())
	}
	tab := r.tr.byXID.tab
	r.s.Close()
	if slices.ContainsFunc(tab, func(e xidEntry) bool { return e != xidEntry{} }) {
		t.Fatal("the closed simulation's XID table still names a call")
	}
	next := newRig(t, DefaultConfig(), 0, 0)
	defer next.s.Close()
	if &next.tr.byXID.tab[0] != &tab[0] {
		t.Fatal("the next simulation's transport did not get the reclaimed table")
	}
}
