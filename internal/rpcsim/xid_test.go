package rpcsim

import (
	"math/rand"
	"testing"
)

// The XID index answers like a list of the calls in flight under any
// order of replies: XIDs are issued in sequence while at most slots are
// in flight, and the calls leave in random order, so some stay in while
// hundreds of later XIDs pass and probe runs wrap around the table.
func TestXIDIndexMatchesLiveCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, slots := range []int{1, 3, 16, 100} {
		x := newXIDIndex(slots)
		var live []*pendingCall
		var next uint32
		for step := 0; step < 50_000; step++ {
			if len(live) < slots && (len(live) == 0 || rng.Intn(2) == 0) {
				next++
				pc := &pendingCall{xid: next}
				x.insert(pc)
				live = append(live, pc)
			} else {
				i := rng.Intn(len(live))
				pc := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if !x.remove(pc) {
					t.Fatalf("slots %d: xid %d was not in the index", slots, pc.xid)
				}
				if x.remove(pc) || x.find(pc.xid) != nil {
					t.Fatalf("slots %d: xid %d still in the index after its removal", slots, pc.xid)
				}
			}
			for _, pc := range live {
				if x.find(pc.xid) != pc {
					t.Fatalf("slots %d, step %d: xid %d not found", slots, step, pc.xid)
				}
			}
			held := 0
			for _, pc := range x.tab {
				if pc != nil {
					held++
				}
			}
			if held != len(live) {
				t.Fatalf("slots %d: the table holds %d calls, %d are in flight", slots, held, len(live))
			}
		}
	}
}
