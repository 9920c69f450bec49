package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/streamsim"
	"repro/internal/xdr"
)

// callsPerTiming is how many calls one layer call timing makes.
const callsPerTiming = 10_000

// timingRepeats timings are taken per layer call; the median is reported.
const timingRepeats = 3

// layerCalls time calls into each layer's exported functions. Each run
// makes n calls; each yields a <name>_ns and a <name>_allocs metric.
var layerCalls = []struct {
	name string
	run  func(n int) error
}{
	{"sim.schedule", callSchedule},
	{"sim.handoff", callHandoff},
	{"nfsproto.write_call", callWriteCall},
	{"nfsproto.write_reply", callWriteReply},
	{"netsim.send8k", callSend8k},
	{"streamsim.record8k", callRecord8k},
}

// layerTimings runs every layer call timing and returns its ns per call,
// scaled to the reference host by calibration units around it, and its
// allocations per call.
func layerTimings() (map[string]float64, error) {
	out := make(map[string]float64, 2*len(layerCalls))
	for _, c := range layerCalls {
		var ns []float64
		var allocs float64
		for r := 0; r < timingRepeats; r++ {
			cal := calibrate()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := hostNow()
			if err := c.run(callsPerTiming); err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			d := hostNow().Sub(t0)
			runtime.ReadMemStats(&m1)
			cal += calibrate()
			ns = append(ns, float64(d)/callsPerTiming*float64(2*calRef)/float64(cal))
			allocs = float64(m1.Mallocs-m0.Mallocs) / callsPerTiming
		}
		out[c.name+"_ns"] = median(ns)
		out[c.name+"_allocs"] = allocs
	}
	return out, nil
}

// callSchedule is one timer event per call: After, then the event loop
// pops and fires it.
func callSchedule(n int) error {
	s := sim.New(1)
	fired := 0
	var tick func()
	tick = func() {
		if fired++; fired < n {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(time.Microsecond, tick)
	s.Run(0)
	if fired != n {
		return fmt.Errorf("fired %d of %d events", fired, n)
	}
	return nil
}

// callHandoff is one process Sleep per call among 100 processes with
// staggered periods, so nearly every wakeup passes the baton to another
// goroutine.
func callHandoff(n int) error {
	const procs = 100
	s := sim.New(1)
	slept := 0
	for i := 0; i < procs; i++ {
		d := time.Duration(i%7+1) * time.Microsecond
		s.Go("proc", func(p *sim.Proc) {
			for j := 0; j < n/procs; j++ {
				p.Sleep(d)
				slept++
			}
		})
	}
	s.Run(0)
	if want := n / procs * procs; slept != want {
		return fmt.Errorf("slept %d of %d times", slept, want)
	}
	return nil
}

var (
	writeData = make([]byte, 8192)
	benchFH   = nfsproto.MakeFileHandle(1, 2)
)

// callWriteCall encodes and decodes one 8 KB WRITE3 call.
func callWriteCall(n int) error {
	for i := 0; i < n; i++ {
		e := xdr.AcquireEncoder()
		nfsproto.CallHeader{XID: uint32(i), Proc: nfsproto.ProcWrite}.Encode(e)
		args := nfsproto.WriteArgs{File: benchFH, Offset: uint64(i) * 8192, Count: 8192,
			Stable: nfsproto.Unstable, Data: writeData}
		args.Encode(e)
		d := xdr.NewDecoder(e.Bytes())
		if _, err := nfsproto.DecodeCall(d); err != nil {
			return err
		}
		got, err := nfsproto.DecodeWriteArgs(d)
		if err != nil {
			return err
		}
		if got.Count != 8192 {
			return fmt.Errorf("decoded count %d", got.Count)
		}
		e.Release()
	}
	return nil
}

// callWriteReply encodes and decodes one WRITE3 reply carrying wcc_data.
func callWriteReply(n int) error {
	for i := 0; i < n; i++ {
		e := xdr.AcquireEncoder()
		nfsproto.ReplyHeader{XID: uint32(i)}.Encode(e)
		size := uint64(i+1) * 8192
		res := nfsproto.WriteRes{
			Status: nfsproto.NFS3OK,
			Wcc: nfsproto.WccData{
				HavePre:  true,
				Pre:      nfsproto.WccAttr{Size: size - 8192, MTime: uint64(i), Change: uint64(i)},
				HavePost: true,
				Post:     nfsproto.FileAttrs{Size: size, FileID: 2, MTime: uint64(i + 1), Change: uint64(i + 1)},
			},
			Count: 8192, Committed: nfsproto.FileSync, Verf: 1,
		}
		res.Encode(e)
		d := xdr.NewDecoder(e.Bytes())
		if _, err := nfsproto.DecodeReply(d); err != nil {
			return err
		}
		got, err := nfsproto.DecodeWriteRes(d)
		if err != nil {
			return err
		}
		if got.Wcc.Post.Change != uint64(i+1) {
			return fmt.Errorf("decoded change %d", got.Wcc.Post.Change)
		}
		e.Release()
	}
	return nil
}

// callSend8k sends one 8 KB datagram (6 fragments at MTU 1500) per call
// and delivers it.
func callSend8k(n int) error {
	s := sim.New(1)
	net := netsim.New(s)
	delivered := 0
	net.AddHost("a", netsim.DefaultGigabit(), nil)
	net.AddHost("b", netsim.DefaultGigabit(), func(netsim.Datagram) { delivered++ })
	payload := make([]byte, nfsproto.WriteCallSize(8192))
	for i := 0; i < n; i++ {
		if res := net.Send(netsim.Datagram{From: "a", To: "b", Payload: payload}); res.Fragments != 6 {
			return fmt.Errorf("%d fragments", res.Fragments)
		}
		s.Run(0)
	}
	if delivered != n {
		return fmt.Errorf("delivered %d of %d", delivered, n)
	}
	return nil
}

// callRecord8k sends one 8 KB record per call across an endpoint pair and
// runs the stream until it is delivered and acknowledged.
func callRecord8k(n int) error {
	s := sim.New(1)
	net := netsim.New(s)
	net.AddHost("a", netsim.DefaultGigabit(), nil)
	net.AddHost("b", netsim.DefaultGigabit(), nil)
	cfg := streamsim.DefaultConfig(netsim.MTUEthernet)
	delivered := 0
	a := streamsim.NewEndpoint(s, net, cfg, "a", "b", func([]byte) {})
	b := streamsim.NewEndpoint(s, net, cfg, "b", "a", func([]byte) { delivered++ })
	net.SetHandler("a", func(dg netsim.Datagram) { a.HandleDatagram(dg.Payload) })
	net.SetHandler("b", func(dg netsim.Datagram) { b.HandleDatagram(dg.Payload) })
	rec := make([]byte, nfsproto.WriteCallSize(8192))
	for i := 0; i < n; i++ {
		a.SendRecord(rec)
		s.Run(0)
	}
	if delivered != n || a.Outstanding() != 0 {
		return fmt.Errorf("delivered %d of %d, %d bytes unacknowledged", delivered, n, a.Outstanding())
	}
	return nil
}
