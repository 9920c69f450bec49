package sim

import "math/rand"

// QueueLen returns how many events are queued — in the heap, behind
// lane heads and in the ready FIFO — for the tests that pin it to the
// number of live events.
func (s *Sim) QueueLen() int {
	n := 0
	for _, ev := range s.events {
		for ; ev != nil; ev = ev.next {
			n++
		}
	}
	for ev := s.ready.head; ev != nil; ev = ev.next {
		n++
	}
	return n
}

// HeapLen returns how many events the heap holds: plain events and lane
// heads.
func (s *Sim) HeapLen() int { return len(s.events) }

// Calls returns how many times the label named name was recorded.
func (pr *Profiler) Calls(name string) int { return pr.get(name).calls }

// Reset clears all accumulated data.
func (pr *Profiler) Reset() { clear(pr.by) }

// Rand returns the simulation's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Idle reports whether no events remain.
func (s *Sim) Idle() bool { return len(s.events) == 0 && s.ready.head == nil }

// Live returns the number of spawned processes that have not terminated.
func (s *Sim) Live() int { return len(s.procs) }

// Held reports whether the mutex is currently held.
func (m *Mutex) Held() bool { return m.holder != nil }

// HeldBy reports whether p currently holds the mutex.
func (m *Mutex) HeldBy(p *Proc) bool { return m.holder == p }
