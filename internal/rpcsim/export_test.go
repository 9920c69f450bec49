package rpcsim

import "fmt"

// procNull is NFSPROC3_NULL, the procedure these tests call: the stub
// responders answer it with a bare reply header. The modeled client never
// sends it, so nfsproto does not define it.
const procNull = 0

// InFlight returns the number of outstanding calls.
func (t *Transport) InFlight() int { return t.inflight }

// SlotsAvailable reports whether a Call would start without blocking.
func (t *Transport) SlotsAvailable() bool { return t.inflight < t.cfg.MaxSlots }

// StockedCalls counts the call records in t's stock. It fails if one is
// still bound to a transport or linked to another call.
func (t *Transport) StockedCalls() (int, error) {
	for _, pc := range t.stock.free {
		if pc.t != nil || pc.prev != nil || pc.next != nil {
			return 0, fmt.Errorf("a stocked call record is bound to %p and linked to %p and %p", pc.t, pc.prev, pc.next)
		}
	}
	return len(t.stock.free), nil
}
