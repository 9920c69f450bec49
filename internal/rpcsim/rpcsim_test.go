package rpcsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/streamsim"
	"repro/internal/xdr"
)

// testRig wires a client transport to a scripted responder host.
type testRig struct {
	s   *sim.Sim
	net *netsim.Network
	cpu *sim.CPUPool
	bkl *sim.Mutex
	tr  *Transport
}

// newRig builds a client and a responder that answers every call after
// delay with a bare reply header (valid for NULL-style calls).
// dropFirst makes the responder swallow the first n requests (for
// retransmission tests).
func newRig(t *testing.T, cfg Config, delay sim.Time, dropFirst int) *testRig {
	t.Helper()
	s := sim.New(7)
	net := netsim.New(s)
	link := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}
	net.AddHost("c", link, nil)
	dropped := 0
	net.AddHost("srv", link, func(dg netsim.Datagram) {
		if dropped < dropFirst {
			dropped++
			return
		}
		d := xdr.NewDecoder(dg.Payload)
		hdr, err := nfsproto.DecodeCall(d)
		if err != nil {
			t.Fatalf("responder: %v", err)
		}
		s.After(delay, func() {
			e := xdr.NewEncoder(64)
			nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
			net.Send(netsim.Datagram{From: "srv", To: "c", Payload: e.Bytes()})
		})
	})
	cpu := s.NewCPUPool(2)
	bkl := s.NewMutex("bkl")
	tr := New(s, net, cpu, bkl, cfg, "c", "srv")
	return &testRig{s: s, net: net, cpu: cpu, bkl: bkl, tr: tr}
}

func nullArgs(*xdr.Encoder) {}

// nullReply decodes nothing: a NULL reply has no body.
func nullReply(*xdr.Decoder) (struct{}, error) { return struct{}{}, nil }

// replyDecoded is a CallSync decoder that reports whether it ran on a
// reply body.
func replyDecoded(d *xdr.Decoder) (bool, error) { return d != nil, nil }

func TestCallSyncRoundTrip(t *testing.T) {
	rig := newRig(t, DefaultConfig(), 100*time.Microsecond, 0)
	done := false
	rig.s.Go("caller", func(p *sim.Proc) {
		if ok, _ := CallSync(rig.tr, p, procNull, nullArgs, replyDecoded); !ok {
			t.Error("nil reply decoder")
		}
		done = true
	})
	rig.s.Run(time.Second)
	if !done {
		t.Fatal("call never completed")
	}
	st := rig.tr.Stats()
	if st.Calls != 1 || st.Replies != 1 || st.Retransmits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.TotalRTT < 100*time.Microsecond {
		t.Fatalf("rtt = %v, should include server delay", st.TotalRTT)
	}
}

func TestSlotLimiting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSlots = 2
	rig := newRig(t, cfg, 500*time.Microsecond, 0)
	maxInFlight := 0
	completed := 0
	rig.s.Go("caller", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			rig.tr.Call(p, procNull, nullArgs, func(*xdr.Decoder) { completed++ })
			if rig.tr.InFlight() > maxInFlight {
				maxInFlight = rig.tr.InFlight()
			}
		}
	})
	rig.s.Run(time.Second)
	if completed != 6 {
		t.Fatalf("completed = %d", completed)
	}
	if maxInFlight > 2 {
		t.Fatalf("in flight reached %d with 2 slots", maxInFlight)
	}
}

func TestSlotsAvailable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSlots = 1
	rig := newRig(t, cfg, time.Millisecond, 0)
	var during bool
	rig.s.Go("caller", func(p *sim.Proc) {
		rig.tr.Call(p, procNull, nullArgs, nil)
		during = rig.tr.SlotsAvailable()
	})
	rig.s.Run(time.Second)
	if during {
		t.Fatal("slots reported available while the only slot was in flight")
	}
	if !rig.tr.SlotsAvailable() {
		t.Fatal("slots not available after completion")
	}
}

func TestRetransmit(t *testing.T) {
	rig := newRig(t, DefaultConfig(), 100*time.Microsecond, 1) // drop first request
	rig.tr.initRTO = 10 * time.Millisecond
	done := false
	rig.s.Go("caller", func(p *sim.Proc) {
		CallSync(rig.tr, p, procNull, nullArgs, nullReply)
		done = true
	})
	rig.s.Run(time.Second)
	if !done {
		t.Fatal("call never completed despite retransmission")
	}
	st := rig.tr.Stats()
	if st.Retransmits != 1 {
		t.Fatalf("retransmits = %d, want 1", st.Retransmits)
	}
}

func TestDuplicateReplyDropped(t *testing.T) {
	// Server answers twice; the second reply must be ignored.
	s := sim.New(7)
	net := netsim.New(s)
	link := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}
	net.AddHost("c", link, nil)
	net.AddHost("srv", link, func(dg netsim.Datagram) {
		d := xdr.NewDecoder(dg.Payload)
		hdr, _ := nfsproto.DecodeCall(d)
		for i := 0; i < 2; i++ {
			e := xdr.NewEncoder(64)
			nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
			net.Send(netsim.Datagram{From: "srv", To: "c", Payload: e.Bytes()})
		}
	})
	tr := New(s, net, s.NewCPUPool(2), s.NewMutex("bkl"), DefaultConfig(), "c", "srv")
	replies := 0
	s.Go("caller", func(p *sim.Proc) {
		tr.Call(p, procNull, nullArgs, func(*xdr.Decoder) { replies++ })
	})
	s.Run(time.Second)
	if replies != 1 {
		t.Fatalf("callback ran %d times", replies)
	}
	if tr.Stats().Replies != 1 {
		t.Fatalf("stats replies = %d", tr.Stats().Replies)
	}
}

// The heart of §3.5: with HoldBKLAcrossSend another thread wanting the
// BKL waits out the ~50 µs sock_sendmsg; with ReleaseBKLForSend it gets
// the lock almost immediately.
func TestLockPolicyContention(t *testing.T) {
	measure := func(policy LockPolicy) sim.Time {
		cfg := DefaultConfig()
		cfg.LockPolicy = policy
		rig := newRig(t, cfg, 200*time.Microsecond, 0)
		// Build an 8 KB WRITE-sized payload so sock_sendmsg costs ~50 µs.
		body := make([]byte, 8192)
		writeArgs := func(e *xdr.Encoder) {
			a := nfsproto.WriteArgs{File: nfsproto.MakeFileHandle(1, 1), Count: 8192, Data: body}
			a.Encode(e)
		}
		var waited sim.Time
		rig.s.Go("sender", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				rig.tr.Call(p, nfsproto.ProcWrite, writeArgs, nil)
			}
		})
		rig.s.Go("writer", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				p.Sleep(30 * time.Microsecond)
				t0 := rig.s.Now()
				rig.bkl.Lock(p, sim.NewLabel("nfs_commit_write"))
				waited += rig.s.Now() - t0
				p.Sleep(2 * time.Microsecond)
				rig.bkl.Unlock(p)
			}
		})
		rig.s.Run(time.Second)
		return waited
	}
	held := measure(HoldBKLAcrossSend)
	released := measure(ReleaseBKLForSend)
	if held <= released*2 {
		t.Fatalf("BKL wait with lock held (%v) should far exceed released (%v)", held, released)
	}
}

// With the stock policy, the BKL wait must be dominated by sock_sendmsg —
// the paper attributes ~90% of write-path lock waiting to it.
func TestWaitAttributionDominatedBySend(t *testing.T) {
	cfg := DefaultConfig()
	rig := newRig(t, cfg, 200*time.Microsecond, 0)
	body := make([]byte, 8192)
	writeArgs := func(e *xdr.Encoder) {
		a := nfsproto.WriteArgs{File: nfsproto.MakeFileHandle(1, 1), Count: 8192, Data: body}
		a.Encode(e)
	}
	rig.s.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			rig.tr.Call(p, nfsproto.ProcWrite, writeArgs, nil)
		}
	})
	rig.s.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			p.Sleep(25 * time.Microsecond)
			rig.bkl.Lock(p, sim.NewLabel("nfs_commit_write"))
			rig.bkl.Unlock(p)
		}
	})
	rig.s.Run(time.Second)
	wb := rig.bkl.WaitBreakdown()
	var total sim.Time
	for _, v := range wb {
		total += v
	}
	if total == 0 {
		t.Fatal("no contention observed")
	}
	frac := float64(wb["sock_sendmsg"]) / float64(total)
	if frac < 0.7 {
		t.Fatalf("sock_sendmsg fraction of BKL wait = %.2f, want dominant", frac)
	}
}

func TestSendCPUProfiled(t *testing.T) {
	rig := newRig(t, DefaultConfig(), 50*time.Microsecond, 0)
	rig.s.Go("caller", func(p *sim.Proc) {
		CallSync(rig.tr, p, procNull, nullArgs, nullReply)
	})
	rig.s.Run(time.Second)
	prof := rig.s.Profiler()
	if prof.Total("sock_sendmsg") == 0 {
		t.Fatal("sock_sendmsg not profiled")
	}
	if prof.Total("udp_rcv") == 0 {
		t.Fatal("udp_rcv not profiled")
	}
}

func TestEightKWriteCostsFiftyMicroseconds(t *testing.T) {
	// Validate the calibration: an 8 KB WRITE fragments into 6 packets
	// and costs 8 + 6*7 = 50 µs of sock_sendmsg CPU.
	sz := nfsproto.WriteCallSize(8192)
	frags := WireUnits(TransportUDP, sz, netsim.MTUEthernet)
	cost := sendCPUBase + sim.Time(frags)*sendCPUPerFragment
	if cost != 50*time.Microsecond {
		t.Fatalf("8 KB WRITE sock_sendmsg cost = %v, want 50µs", cost)
	}
}

// The transport sizes its messages for the network's path MTU: between
// two jumbo hosts an 8 KB WRITE is one fragment, and between a jumbo
// host and an Ethernet host it is six, the smaller link's count.
func TestSendCostFollowsPathMTU(t *testing.T) {
	for _, tc := range []struct {
		serverMTU int
		frags     int
	}{
		{netsim.MTUJumbo, 1},
		{netsim.MTUEthernet, 6},
	} {
		s := sim.New(1)
		net := netsim.New(s)
		link := netsim.DefaultGigabit()
		link.MTU = netsim.MTUJumbo
		net.AddHost("c", link, nil)
		link.MTU = tc.serverMTU
		net.AddHost("srv", link, nil)
		tr := New(s, net, s.NewCPUPool(1), s.NewMutex("bkl"), DefaultConfig(), "c", "srv")
		s.Go("writer", func(p *sim.Proc) {
			a := nfsproto.WriteArgs{File: nfsproto.MakeFileHandle(1, 1), Count: 8192, Data: make([]byte, 8192)}
			tr.Call(p, nfsproto.ProcWrite, a.Encode, nil)
		})
		s.Run(time.Millisecond)
		want := sendCPUBase + sim.Time(tc.frags)*sendCPUPerFragment
		if got := s.Profiler().Total("sock_sendmsg"); got != want {
			t.Errorf("server MTU %d: sock_sendmsg %v, want %v (%d fragments)", tc.serverMTU, got, want, tc.frags)
		}
		if got := tr.Stats().ByProc[nfsproto.ProcWrite]; got != 1 {
			t.Errorf("server MTU %d: %d WRITEs counted, want 1", tc.serverMTU, got)
		}
		s.Close()
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := sim.New(1)
	net := netsim.New(s)
	net.AddHost("c", netsim.DefaultGigabit(), nil)
	cfg := DefaultConfig()
	cfg.MaxSlots = 0
	New(s, net, s.NewCPUPool(1), s.NewMutex("bkl"), cfg, "c", "c")
}

func TestLockPolicyString(t *testing.T) {
	if HoldBKLAcrossSend.String() != "bkl" || ReleaseBKLForSend.String() != "no-lock" {
		t.Fatal("LockPolicy strings wrong")
	}
}

// The retransmit timer must back off exponentially: a server that
// swallows the first four transmissions answers the fifth, and the gaps
// between retransmissions double.
func TestRetransmitExponentialBackoff(t *testing.T) {
	s := sim.New(7)
	net := netsim.New(s)
	link := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}
	net.AddHost("c", link, nil)
	var arrivals []sim.Time
	net.AddHost("srv", link, func(dg netsim.Datagram) {
		arrivals = append(arrivals, s.Now())
		if len(arrivals) < 5 {
			return // swallow
		}
		d := xdr.NewDecoder(dg.Payload)
		hdr, _ := nfsproto.DecodeCall(d)
		e := xdr.NewEncoder(64)
		nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
		net.Send(netsim.Datagram{From: "srv", To: "c", Payload: e.Bytes()})
	})
	tr := New(s, net, s.NewCPUPool(2), s.NewMutex("bkl"), DefaultConfig(), "c", "srv")
	tr.initRTO = 10 * time.Millisecond
	done := false
	s.Go("caller", func(p *sim.Proc) {
		CallSync(tr, p, procNull, nullArgs, nullReply)
		done = true
	})
	s.Run(time.Minute)
	if !done {
		t.Fatal("call never completed")
	}
	if len(arrivals) != 5 {
		t.Fatalf("server saw %d transmissions, want 5", len(arrivals))
	}
	for i := 2; i < len(arrivals); i++ {
		prev := arrivals[i-1] - arrivals[i-2]
		cur := arrivals[i] - arrivals[i-1]
		// Doubling, modulo sub-millisecond wire-time noise.
		if cur < prev*3/2 {
			t.Fatalf("gap %d = %v after %v; retransmit timer did not back off", i, cur, prev)
		}
	}
	st := tr.Stats()
	if st.Retransmits != 4 {
		t.Fatalf("retransmits = %d, want 4", st.Retransmits)
	}
	// Karn: the retransmitted call contributes no RTT sample.
	if st.RTTSamples != 0 || st.TotalRTT != 0 {
		t.Fatalf("retransmitted call sampled RTT: %+v", st)
	}
}

// Backoff must clamp at the maximum timeout.
func TestRetransmitBackoffClamped(t *testing.T) {
	rig := newRig(t, DefaultConfig(), 100*time.Microsecond, 1000) // server never answers
	rig.tr.initRTO = 10 * time.Millisecond
	rig.tr.maxRTO = 40 * time.Millisecond
	rig.s.Go("caller", func(p *sim.Proc) {
		rig.tr.Call(p, procNull, nullArgs, nil)
	})
	rig.s.Run(time.Second)
	// 1 s with timeouts 10+20+40+40+... -> about (1000-70)/40 + 3 ~ 26.
	n := rig.tr.Stats().Retransmits
	if n < 20 || n > 30 {
		t.Fatalf("retransmits = %d, want ~26 with a 40 ms clamp", n)
	}
}

func TestDuplicateReplyCounted(t *testing.T) {
	// Server answers twice; the duplicate must be suppressed AND counted.
	s := sim.New(7)
	net := netsim.New(s)
	link := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}
	net.AddHost("c", link, nil)
	net.AddHost("srv", link, func(dg netsim.Datagram) {
		d := xdr.NewDecoder(dg.Payload)
		hdr, _ := nfsproto.DecodeCall(d)
		for i := 0; i < 2; i++ {
			e := xdr.NewEncoder(64)
			nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
			net.Send(netsim.Datagram{From: "srv", To: "c", Payload: e.Bytes()})
		}
	})
	tr := New(s, net, s.NewCPUPool(2), s.NewMutex("bkl"), DefaultConfig(), "c", "srv")
	s.Go("caller", func(p *sim.Proc) {
		tr.Call(p, procNull, nullArgs, nil)
	})
	s.Run(time.Second)
	st := tr.Stats()
	if st.Replies != 1 || st.DuplicateReplies != 1 {
		t.Fatalf("stats = %+v, want 1 reply + 1 suppressed duplicate", st)
	}
}

func TestTransportKindStringAndParse(t *testing.T) {
	if TransportUDP.String() != "udp" || TransportTCP.String() != "tcp" {
		t.Fatal("TransportKind strings wrong")
	}
	for _, name := range []string{"udp", "tcp"} {
		k, err := ParseTransport(name)
		if err != nil || k.String() != name {
			t.Fatalf("ParseTransport(%q) = %v, %v", name, k, err)
		}
	}
	if _, err := ParseTransport("sctp"); err == nil {
		t.Fatal("bad transport name should fail")
	}
}

// tcpRig wires a TransportTCP client to a scripted stream responder.
func tcpRig(t *testing.T, seed int64, loss float64, delay sim.Time) (*sim.Sim, *Transport) {
	t.Helper()
	s := sim.New(seed)
	net := netsim.New(s)
	link := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}
	net.AddHost("c", link, nil)
	net.AddHost("srv", link, nil)
	if loss > 0 {
		net.SetLoss(netsim.LossConfig{Rate: loss})
	}
	var srvEp *streamsim.Endpoint
	srvEp = streamsim.NewEndpoint(s, net, streamsim.DefaultConfig(netsim.MTUEthernet), "srv", "c",
		func(rec []byte) {
			d := xdr.NewDecoder(rec)
			hdr, err := nfsproto.DecodeCall(d)
			if err != nil {
				t.Fatalf("responder: %v", err)
			}
			s.After(delay, func() {
				e := xdr.NewEncoder(64)
				nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
				srvEp.SendRecord(e.Bytes())
			})
		})
	net.SetHandler("srv", func(dg netsim.Datagram) { srvEp.HandleDatagram(dg.Payload) })
	cfg := DefaultConfig()
	cfg.Transport = TransportTCP
	tr := New(s, net, s.NewCPUPool(2), s.NewMutex("bkl"), cfg, "c", "srv")
	return s, tr
}

func TestTCPCallRoundTrip(t *testing.T) {
	s, tr := tcpRig(t, 7, 0, 100*time.Microsecond)
	done := false
	s.Go("caller", func(p *sim.Proc) {
		if ok, _ := CallSync(tr, p, procNull, nullArgs, replyDecoded); !ok {
			t.Error("nil reply decoder")
		}
		done = true
	})
	s.Run(time.Second)
	if !done {
		t.Fatal("call never completed")
	}
	st := tr.Stats()
	if st.Calls != 1 || st.Replies != 1 || st.Retransmits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// Over a lossy network the stream transport must complete every call with
// no whole-RPC retransmissions and no duplicate replies — the stream
// repairs segment loss below the RPC layer.
func TestTCPLossyCallsAllComplete(t *testing.T) {
	s, tr := tcpRig(t, 3, 0.05, 100*time.Microsecond)
	const calls = 40
	completed := 0
	body := make([]byte, 8192)
	writeArgs := func(e *xdr.Encoder) {
		a := nfsproto.WriteArgs{File: nfsproto.MakeFileHandle(1, 1), Count: 8192, Data: body}
		a.Encode(e)
	}
	s.Go("caller", func(p *sim.Proc) {
		for i := 0; i < calls; i++ {
			tr.Call(p, nfsproto.ProcWrite, writeArgs, func(*xdr.Decoder) { completed++ })
		}
	})
	s.Run(10 * time.Minute)
	if completed != calls {
		t.Fatalf("completed %d of %d calls at 5%% loss", completed, calls)
	}
	st := tr.Stats()
	if st.DuplicateReplies != 0 {
		t.Fatalf("stream transport produced duplicate replies: %+v", st)
	}
	if st.Retransmits == 0 {
		t.Fatal("no segment retransmissions at 5% loss")
	}
	if tr.InFlight() != 0 {
		t.Fatalf("%d calls still pending", tr.InFlight())
	}
}

// Property: under many concurrent callers with random server delays,
// every call completes exactly once, slots are never oversubscribed, and
// the transport ends the run drained.
func TestManyCallersProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		cfg := DefaultConfig()
		cfg.MaxSlots = 4
		s := sim.New(seed)
		rng := rand.New(rand.NewSource(seed))
		net := netsim.New(s)
		link := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}
		net.AddHost("c", link, nil)
		net.AddHost("srv", link, func(dg netsim.Datagram) {
			d := xdr.NewDecoder(dg.Payload)
			hdr, err := nfsproto.DecodeCall(d)
			if err != nil {
				t.Fatal(err)
			}
			delay := sim.Time(rng.Intn(500)) * time.Microsecond
			s.After(delay, func() {
				e := xdr.NewEncoder(64)
				nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
				net.Send(netsim.Datagram{From: "srv", To: "c", Payload: e.Bytes()})
			})
		})
		tr := New(s, net, s.NewCPUPool(2), s.NewMutex("bkl"), cfg, "c", "srv")
		const callers, perCaller = 6, 10
		completed := 0
		over := false
		for i := 0; i < callers; i++ {
			s.Go("caller", func(p *sim.Proc) {
				for j := 0; j < perCaller; j++ {
					tr.Call(p, procNull, nullArgs, func(*xdr.Decoder) { completed++ })
					if tr.InFlight() > cfg.MaxSlots {
						over = true
					}
					p.Sleep(sim.Time(rng.Intn(200)) * time.Microsecond)
				}
			})
		}
		s.Run(time.Minute)
		if over {
			t.Fatalf("seed %d: slot table oversubscribed", seed)
		}
		if completed != callers*perCaller {
			t.Fatalf("seed %d: %d of %d calls completed", seed, completed, callers*perCaller)
		}
		if tr.InFlight() != 0 {
			t.Fatalf("seed %d: %d calls still pending", seed, tr.InFlight())
		}
		st := tr.Stats()
		if st.Calls != callers*perCaller || st.Replies != st.Calls || st.Retransmits != 0 {
			t.Fatalf("seed %d: stats %+v", seed, st)
		}
	}
}
