package streamsim

import "repro/internal/sim"

// RTO returns the current (backed-off) retransmission timeout.
func (e *Endpoint) RTO() sim.Time { return e.curRTO() }
