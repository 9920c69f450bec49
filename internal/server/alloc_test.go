package server

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/racebuild"
	"repro/internal/rpcsim"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// A steady-state UDP WRITE round trip allocates nothing end to end: the
// client encodes into a pooled buffer held by a recycled call record,
// netsim carries it in a pooled delivery record, the server decodes it
// into values with its worker's decoder, and each buffer goes back to the
// pool when its last copy ends. The retransmit timeout is shorter than
// the round trip, so every call also puts a retransmitted copy through
// the server and draws a duplicate reply.
func TestSteadyStateWriteRoundTripAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	s := sim.New(5)
	net := netsim.New(s)
	net.AddHost(HostClient, netsim.DefaultGigabit(), nil)
	srv := NewF85(s, net, netsim.MTUEthernet, rpcsim.TransportUDP)
	cfg := rpcsim.DefaultConfig()
	cfg.RetransmitTimeout = 250 * time.Microsecond
	tr := rpcsim.New(s, net, s.NewCPUPool(2), s.NewMutex("bkl"), cfg, HostClient, HostFiler)

	args := nfsproto.WriteArgs{File: nfsproto.MakeFileHandle(1, 1), Count: 8192,
		Stable: nfsproto.Unstable, Data: nfsproto.Zeroes(8192)}
	encode := args.Encode
	replies := 0
	onReply := func(d *xdr.Decoder) {
		res, err := nfsproto.DecodeWriteRes(d)
		if err != nil || res.Status != nfsproto.NFS3OK || res.Count != 8192 {
			t.Errorf("reply %+v: %v", res, err)
		}
		replies++
	}
	start := s.NewWaitQueue()
	s.Go("writer", func(p *sim.Proc) {
		for {
			start.Wait(p)
			tr.Call(p, nfsproto.ProcWrite, encode, onReply)
		}
	})
	s.Run(s.Now() + time.Millisecond) // park the writer
	roundTrip := func() {
		start.Signal()
		s.Run(s.Now() + 5*time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		roundTrip() // warm the pools, free lists and queues
	}
	if n := testing.AllocsPerRun(100, roundTrip); n != 0 {
		t.Fatalf("a WRITE round trip costs %.2f allocations", n)
	}
	st := tr.Stats()
	if replies != 121 || st.Retransmits != 121 || st.DuplicateReplies != 121 {
		t.Fatalf("replies %d, stats %+v: want one retransmit and one duplicate reply per call", replies, st)
	}
	// Every call the transport made got its reply or timed out; none is
	// still in flight.
	if inFlight := st.Calls - st.Replies - st.MajorTimeouts; inFlight != 0 || srv.Writes != 242 {
		t.Fatalf("in flight %d, server writes %d", inFlight, srv.Writes)
	}
}
