package server

import (
	"runtime/debug"
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
// pool when its last copy ends. The client is 600 ms from the switch, so
// each call's 1.1 s retransmit timer fires before its reply is back: every
// call also puts a retransmitted copy through the server and draws a
// duplicate reply. The run spans six virtual minutes, so the filer's
// timer checkpoints are pushed past its end: each allocates its disk
// completion, about 30 in 100 round trips, which AllocsPerRun's
// truncated mean would not show.
func TestSteadyStateWriteRoundTripAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	s := sim.New(5)
	net := netsim.New(s)
	far := netsim.DefaultGigabit()
	far.Propagation = 600 * time.Millisecond
	net.AddHost(HostClient, far, nil)
	srv := NewF85(s, net, netsim.MTUEthernet, rpcsim.TransportUDP)
	srv.Backend().(*Filer).setCPTiming(time.Hour, cpPause)
	tr := rpcsim.New(s, net, s.NewCPUPool(2), s.NewMutex("bkl"), rpcsim.DefaultConfig(), HostClient, HostFiler)

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
		s.Run(s.Now() + 3*time.Second)
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

// A steady-state round of eight UDP WRITEs and a COMMIT against knfsd
// allocates nothing once warm. The dirty limit is cut to four writes and
// the disk slowed tenfold, so each round runs every continuation the nfsd
// and writeback tasks have:
// writes throttled on the dirty limit retry when the writeback task
// frees room, and the COMMIT parks until the page cache is clean and
// retries then.
func TestSteadyStateKnfsdCommitRoundTripAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	s := sim.New(5)
	net := netsim.New(s)
	net.AddHost(HostClient, netsim.DefaultGigabit(), nil)
	srv := NewLinuxNFS(s, net, netsim.MTUEthernet, rpcsim.TransportUDP)
	l := srv.Backend().(*LinuxServer)
	l.dirtyLimit, l.drainChunk = 32<<10, 16<<10
	l.SetDiskSlowFactor(10)
	tr := rpcsim.New(s, net, s.NewCPUPool(2), s.NewMutex("bkl"), rpcsim.DefaultConfig(), HostClient, HostLinux)

	const writes = 8
	fh := nfsproto.MakeFileHandle(1, 1)
	var encodes [writes]func(*xdr.Encoder)
	for i := range encodes {
		args := nfsproto.WriteArgs{File: fh, Offset: uint64(i) * 8192, Count: 8192,
			Stable: nfsproto.Unstable, Data: nfsproto.Zeroes(8192)}
		encodes[i] = args.Encode
	}
	commit := (&nfsproto.CommitArgs{File: fh}).Encode
	replies, commits := 0, 0
	acked := s.NewWaitQueue()
	onReply := func(d *xdr.Decoder) {
		res, err := nfsproto.DecodeWriteRes(d)
		if err != nil || res.Status != nfsproto.NFS3OK || res.Committed != nfsproto.Unstable {
			t.Errorf("write reply %+v: %v", res, err)
		}
		replies++
		acked.Signal()
	}
	// A poller bound once notes when a COMMIT is waiting for the page
	// cache to drain.
	commitWaited := false
	var poll func()
	poll = func() {
		if l.cleanWait.Waiting() > 0 {
			commitWaited = true
		}
		s.After(100*time.Microsecond, poll)
	}
	s.After(0, poll)
	start := s.NewWaitQueue()
	s.Go("writer", func(p *sim.Proc) {
		for {
			start.Wait(p)
			want, throttled := replies+writes, l.Throttled
			commitWaited = false
			for _, encode := range encodes {
				tr.Call(p, nfsproto.ProcWrite, encode, onReply)
			}
			for replies < want {
				acked.Wait(p)
			}
			res, err := rpcsim.CallSync(tr, p, nfsproto.ProcCommit, commit, nfsproto.DecodeCommitRes)
			if err != nil || res.Status != nfsproto.NFS3OK || l.Dirty() != 0 {
				t.Errorf("commit %+v: %v, %d bytes still dirty", res, err, l.Dirty())
			}
			if l.Throttled == throttled || !commitWaited {
				t.Errorf("round %d: %d writes throttled, COMMIT waited %v: want both", commits, l.Throttled-throttled, commitWaited)
			}
			commits++
		}
	})
	s.Run(s.Now() + time.Millisecond) // park the writer
	round := func() {
		start.Signal()
		s.Run(s.Now() + 200*time.Millisecond)
	}
	for range 10 {
		round() // warm the pools, free lists and queues
	}
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("a WRITE×%d + COMMIT round costs %.2f allocations", writes, n)
	}
	const rounds = 10 + 51
	if commits != rounds || replies != rounds*writes || srv.Commits != rounds {
		t.Fatalf("%d commits, %d write replies, server commits %d: want %d rounds", commits, replies, srv.Commits, rounds)
	}
}

// An nfsd worker serves a deep queue of requests one after another, each
// step finishing in place, without its stack growing with the queue: the
// task's steps run in a loop, not as nested calls. The client's link is
// down, so every reply is dropped at send and nothing else is scheduled
// to interrupt the worker.
func TestDeepRequestQueueKeepsStackFlat(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	net := netsim.New(s)
	net.AddHost(HostClient, netsim.DefaultGigabit(), nil)
	net.SetDown(HostClient, true)
	cfg := Config{Host: HostLinux, CPUs: 1, RecvCPUBase: 6_000, RecvCPUPerFragment: 2_500,
		ServiceCPU: 60_000, SendCPU: 6_000}
	srv := newServer(s, net, netsim.DefaultGigabit(), cfg, NewLinuxServer(s, newTestDisk(s)), 1)

	enc := xdr.AcquireEncoder()
	nfsproto.CallHeader{XID: 1, Proc: nfsproto.ProcGetattr}.Encode(enc)
	(&nfsproto.GetattrArgs{File: nfsproto.MakeFileHandle(1, 1)}).Encode(enc)
	const requests = 20_000
	for range requests {
		srv.rxq.Push(rxItem{from: HostClient, payload: enc.Bytes()}) // one fragment
	}
	defer debug.SetMaxStack(debug.SetMaxStack(256 << 10))
	end := s.Run(0)
	if srv.rxq.Len() != 0 {
		t.Fatalf("%d requests left unserved", srv.rxq.Len())
	}
	perRequest := cfg.RecvCPUBase + cfg.RecvCPUPerFragment + cfg.ServiceCPU/4 + cfg.SendCPU
	if want := requests * perRequest; end != want {
		t.Fatalf("served by %v, want %v: every request back to back", end, want)
	}
}
