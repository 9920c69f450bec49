package rpcsim

// procNull is NFSPROC3_NULL, the procedure these tests call: the stub
// responders answer it with a bare reply header. The modeled client never
// sends it, so nfsproto does not define it.
const procNull = 0

// InFlight returns the number of outstanding calls.
func (t *Transport) InFlight() int { return t.inflight }

// SlotsAvailable reports whether a Call would start without blocking.
func (t *Transport) SlotsAvailable() bool { return t.inflight < t.cfg.MaxSlots }
