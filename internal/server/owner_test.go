package server

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/rpcsim"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// requestOwner stands in for the client's pending call: it counts the
// releases of each request buffer and fails a release of a buffer the
// server still holds in its receive queue.
type requestOwner struct {
	t        *testing.T
	srv      *Server
	released map[*byte]int
}

func (o *requestOwner) Release(b []byte) {
	for _, it := range o.srv.rxq.Items() {
		if &it.payload[0] == &b[0] {
			o.t.Errorf("request released while still queued")
		}
	}
	o.released[&b[0]]++
}

// The server front-end ends each request copy it receives exactly once:
// after serving it, when a crash flushes it from the receive queue, or
// when it arrives at a crashed server.
func TestServerReleasesEveryRequestCopy(t *testing.T) {
	s := sim.New(3)
	net := netsim.New(s)
	net.AddHost(HostClient, netsim.DefaultGigabit(), nil)
	srv := NewF85(s, net, netsim.MTUEthernet, rpcsim.TransportUDP)
	o := &requestOwner{t: t, srv: srv, released: map[*byte]int{}}
	var sent [][]byte
	send := func(xid uint32) {
		e := xdr.NewEncoder(9000)
		nfsproto.CallHeader{XID: xid, Proc: nfsproto.ProcWrite}.Encode(e)
		args := nfsproto.WriteArgs{File: nfsproto.MakeFileHandle(1, 1), Offset: uint64(xid) * 8192,
			Count: 8192, Stable: nfsproto.Unstable, Data: xdr.Zeroes(8192)}
		args.Encode(e)
		sent = append(sent, e.Bytes())
		net.Send(netsim.Datagram{From: HostClient, To: HostFiler, Payload: e.Bytes(), Owner: o})
	}
	for xid := uint32(1); xid <= 20; xid++ {
		send(xid)
	}

	// Crash once requests are waiting for a worker, and check the flush
	// released exactly them.
	queued := 0
	var poll func()
	poll = func() {
		if srv.rxq.Len() < 2 {
			s.After(10*time.Microsecond, poll)
			return
		}
		queued = srv.rxq.Len()
		before := len(o.released)
		srv.Crash()
		if got := len(o.released) - before; got != queued {
			t.Errorf("crash released %d requests, want the %d queued", got, queued)
		}
		send(21) // arrives at the crashed server
		s.After(time.Second, func() {
			srv.Restart()
			send(22)
		})
	}
	s.At(0, poll)
	s.Run(5 * time.Second)

	if queued == 0 {
		t.Fatal("no requests ever queued; the crash case was not exercised")
	}
	// The flushed requests, the ones still on the wire at the crash and
	// the one sent to the crashed server all died at the front-end.
	if srv.DroppedWhileDown < int64(queued)+1 {
		t.Fatalf("dropped while down = %d, want at least %d", srv.DroppedWhileDown, queued+1)
	}
	for i, b := range sent {
		if n := o.released[&b[0]]; n != 1 {
			t.Errorf("request %d released %d times, want 1", i+1, n)
		}
	}
}
