package main

import (
	"container/heap"
	"strconv"
	"time"
)

// The benchmark reports host time scaled to the reference host's speed.
// A shared host's speed drifts by ±20% over minutes as other tenants load
// its cores, which swamps the bounds. So after every op the benchmark
// times calibration units: a fixed, allocation-free workload shaped like
// the simulator's inner loop (event-heap push and pop, string-keyed
// counter updates, goroutine handoffs). Each op's host time is scaled by
// calRef ÷ the median unit time over the nine ops around it. In ten-run
// sets on the reference host this cut the spread of op_ms_p50 from up to
// 33% to under 5%. The calibration code must never change: it is the
// yardstick.

// calRef is the calibration unit's median host time on the reference
// host; scaled times read as reference-host times.
const calRef = 600 * time.Microsecond

// calWindow ops on each side of an op contribute their calibration
// units to its scale.
const calWindow = 4

// calEvery is how much op time one calibration unit follows, so long ops
// sample the host's speed as densely as short ones.
const calEvery = 20 * time.Millisecond

// calUnits is how many calibration units follow an op of duration d.
func calUnits(d time.Duration) int { return int(d/calEvery) + 1 }

const calEvents = 3000

type calEvent struct {
	at  uint64
	seq int
}

type calHeap []*calEvent

func (h calHeap) Len() int { return len(h) }
func (h calHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h calHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)   { *h = append(*h, x.(*calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// Calibration state, reused so that a unit allocates nothing.
var (
	calEventPool [calEvents]calEvent
	calQueue     = make(calHeap, 0, calEvents)
	calCounts    = make(map[string]uint64, len(calLabels))
	calLabels    = func() (out [32]string) {
		for i := range out {
			out[i] = "label-" + strconv.Itoa(i)
		}
		return out
	}()
	calPing, calPong = make(chan uint64), make(chan uint64)
	calSink          uint64
)

// calEcho answers pings until it gets 0, then returns.
func calEcho() {
	for {
		v := <-calPing
		calPong <- v + 1
		if v == 0 {
			return
		}
	}
}

// calibrate runs one calibration unit and returns its host time.
func calibrate() time.Duration {
	t0 := hostNow()
	calQueue = calQueue[:0]
	for k := range calCounts {
		calCounts[k] = 0
	}
	go calEcho()
	x := uint64(1)
	for i := range calEventPool {
		x = x*6364136223846793005 + 1442695040888963407
		ev := &calEventPool[i]
		ev.at, ev.seq = x>>40, i
		heap.Push(&calQueue, ev)
		if i%2 == 1 {
			ev := heap.Pop(&calQueue).(*calEvent)
			calCounts[calLabels[ev.seq%len(calLabels)]] += ev.at
		}
		if i%10 == 0 {
			calPing <- x | 1
			x = <-calPong
		}
	}
	calPing <- 0
	<-calPong
	calSink += x + calCounts[calLabels[1]] + uint64(len(calQueue))
	return hostNow().Sub(t0)
}

// calUnit is the mean calibration unit after the op, in ns.
func (r opRecord) calUnit() float64 { return float64(r.calTime) / float64(r.calUnits) }

// scaleOps sets each record's scale from the calibration after it and
// after the calWindow ops on either side.
func scaleOps(recs []opRecord) {
	unit := make([]float64, len(recs))
	for i, r := range recs {
		unit[i] = r.calUnit()
	}
	for i := range recs {
		lo, hi := max(i-calWindow, 0), min(i+calWindow+1, len(recs))
		recs[i].scale = float64(calRef) / median(unit[lo:hi])
	}
}
