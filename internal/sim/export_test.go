package sim

// QueueLen returns how many events the queue holds, for the tests that
// pin it to the number of live events.
func (s *Sim) QueueLen() int { return len(s.events) }
