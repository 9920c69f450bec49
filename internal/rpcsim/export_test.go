package rpcsim

// InFlight returns the number of outstanding calls.
func (t *Transport) InFlight() int { return len(t.pending) }

// SlotsAvailable reports whether a Call would start without blocking.
func (t *Transport) SlotsAvailable() bool { return len(t.pending) < t.cfg.MaxSlots }
