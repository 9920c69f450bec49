package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the benchmark's own code around a call
// into the simulator. Spans of one op share its index.
type span struct {
	name       string
	op         int
	start, end time.Time
	children   []span
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// self is the span's duration minus its children's.
func (s span) self() time.Duration {
	d := s.dur()
	for _, c := range s.children {
		d -= c.dur()
	}
	return d
}

// opSpans are one op's spans: the op (harness.RunScenarioOn) with its
// testbed assembly and simulation as children, then the output check.
func opSpans(i int, r opRecord) []span {
	return []span{
		{name: "op", op: i, start: r.start, end: r.ran, children: []span{
			{name: "harness.build", op: i, start: r.start, end: r.built},
			{name: "harness.run", op: i, start: r.built, end: r.ran},
		}},
		{name: "bench.check", op: i, start: r.ran, end: r.checked},
	}
}

// traceEvent is one complete ("X") event of the Trace Event Format that
// Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the spans, children nested under their parents, as
// Trace Event JSON.
func writeTrace(path string, spans []span) error {
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].start
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var events []traceEvent
	var add func(s span)
	add = func(s span) {
		events = append(events, traceEvent{
			Name: s.name, Ph: "X", Ts: us(s.start.Sub(t0)), Dur: us(s.dur()), Pid: 1, Tid: 1,
			Args: map[string]any{"op": s.op, "self_us": us(s.self())},
		})
		for _, c := range s.children {
			add(c)
		}
	}
	for _, s := range spans {
		add(s)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
