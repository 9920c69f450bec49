package rpcsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// Regression for the retransmit-forever hang: with a retransmit cap set
// (SetMaxRetries), a call against a permanently-dead server must be
// abandoned with a DeadServerError instead of retransmitting on a
// saturated backoff timer until the heat death of the run.
func TestDeadServerGivesUp(t *testing.T) {
	rig := newRig(t, DefaultConfig(), 100*time.Microsecond, 1<<30) // server never answers
	rig.tr.initRTO = 10 * time.Millisecond
	rig.tr.SetMaxRetries(3)
	completed := false
	rig.s.Go("caller", func(p *sim.Proc) {
		CallSync(rig.tr, p, procNull, nullArgs, nullReply)
		completed = true
	})
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		rig.s.Run(time.Minute)
	}()
	if msg == "" {
		t.Fatal("run ended without the give-up error; transport hung or retried forever")
	}
	if !strings.Contains(msg, "gave up after 3 retransmits") {
		t.Fatalf("error = %q, want the DeadServerError text", msg)
	}
	if completed {
		t.Fatal("CallSync returned against a dead server")
	}
	st := rig.tr.Stats()
	if st.MajorTimeouts != 1 {
		t.Fatalf("major timeouts = %d, want 1", st.MajorTimeouts)
	}
	if st.Retransmits != 3 {
		t.Fatalf("retransmits = %d, want exactly the cap", st.Retransmits)
	}
	if rig.tr.InFlight() != 0 {
		t.Fatalf("%d calls still pending; the abandoned slot leaked", rig.tr.InFlight())
	}
}

// Without a retransmit cap (the default, 0) the transport is the classic
// hard mount: it must keep retransmitting without ever raising the
// give-up error.
func TestZeroMaxRetriesRetriesForever(t *testing.T) {
	rig := newRig(t, DefaultConfig(), 100*time.Microsecond, 1<<30)
	rig.tr.initRTO = 10 * time.Millisecond
	rig.tr.maxRTO = 40 * time.Millisecond
	rig.s.Go("caller", func(p *sim.Proc) {
		rig.tr.Call(p, procNull, nullArgs, nil)
	})
	rig.s.Run(2 * time.Second) // must not panic
	st := rig.tr.Stats()
	if st.MajorTimeouts != 0 {
		t.Fatalf("major timeouts = %d on a hard mount", st.MajorTimeouts)
	}
	if st.Retransmits < 10 {
		t.Fatalf("retransmits = %d, want an ongoing retry stream", st.Retransmits)
	}
	if rig.tr.InFlight() != 1 {
		t.Fatalf("in flight = %d, want the call still pending", rig.tr.InFlight())
	}
}

// SetMaxRetries must take effect on calls issued after it — the chaos
// engine sets the cap on an already-assembled test bed.
func TestSetMaxRetries(t *testing.T) {
	rig := newRig(t, DefaultConfig(), 100*time.Microsecond, 1<<30)
	rig.tr.initRTO = 10 * time.Millisecond
	rig.tr.SetMaxRetries(2)
	rig.s.Go("caller", func(p *sim.Proc) {
		rig.tr.Call(p, procNull, nullArgs, nil)
	})
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		rig.s.Run(time.Minute)
	}()
	if !strings.Contains(msg, "gave up after 2 retransmits") {
		t.Fatalf("error = %q", msg)
	}
}

// Regression for the softirq decode panic: an undecodable datagram (stale
// or truncated traffic, e.g. from around a server reboot) must be counted
// and dropped, not kill the receive path.
func TestBadReplyCountedAndDropped(t *testing.T) {
	s := sim.New(7)
	net := netsim.New(s)
	link := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 10 * time.Microsecond, MTU: netsim.MTUEthernet}
	net.AddHost("c", link, nil)
	net.AddHost("srv", link, func(dg netsim.Datagram) {
		d := xdr.NewDecoder(dg.Payload)
		hdr, err := nfsproto.DecodeCall(d)
		if err != nil {
			t.Fatalf("responder: %v", err)
		}
		// Garbage first — a truncated reply the decoder cannot parse —
		// then the real answer.
		net.Send(netsim.Datagram{From: "srv", To: "c", Payload: []byte{0xde, 0xad}})
		e := xdr.NewEncoder(64)
		nfsproto.ReplyHeader{XID: hdr.XID}.Encode(e)
		net.Send(netsim.Datagram{From: "srv", To: "c", Payload: e.Bytes()})
	})
	tr := New(s, net, s.NewCPUPool(2), s.NewMutex("bkl"), DefaultConfig(), "c", "srv")
	done := false
	s.Go("caller", func(p *sim.Proc) {
		CallSync(tr, p, procNull, nullArgs, nullReply)
		done = true
	})
	s.Run(time.Second)
	if !done {
		t.Fatal("call never completed; the bad reply killed the softirq loop")
	}
	st := tr.Stats()
	if st.BadReplies != 1 {
		t.Fatalf("bad replies = %d, want 1", st.BadReplies)
	}
	if st.Replies != 1 {
		t.Fatalf("replies = %d, want 1", st.Replies)
	}
}
