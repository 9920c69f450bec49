package netsim

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// A downed destination link drops sends without consuming wire time; the
// drop is counted and delivery resumes when the link comes back.
func TestSetDownDropsAndRecovers(t *testing.T) {
	s, n, got := twoHosts(t, DefaultGigabit())
	n.SetDown("server", true)
	if !n.Down("server") {
		t.Fatal("Down not reported after SetDown")
	}
	res := n.Send(Datagram{From: "client", To: "server", Payload: make([]byte, 100)})
	if !res.Dropped || res.WireBytes != 0 {
		t.Fatalf("send to a downed host: %+v, want dropped with no wire bytes", res)
	}
	s.Run(time.Second)
	if len(*got) != 0 {
		t.Fatalf("%d datagrams delivered to a downed host", len(*got))
	}
	if st := n.HostStats("server"); st.DownDrops != 1 {
		t.Fatalf("server DownDrops = %d, want 1", st.DownDrops)
	}
	n.SetDown("server", false)
	if res := n.Send(Datagram{From: "client", To: "server", Payload: make([]byte, 100)}); res.Dropped {
		t.Fatal("send dropped after link came back up")
	}
	s.Run(time.Second)
	if len(*got) != 1 {
		t.Fatalf("delivered %d datagrams after link up, want 1", len(*got))
	}
}

// A downed source drops at its own NIC and is charged the drop.
func TestSetDownSourceDrops(t *testing.T) {
	_, n, _ := twoHosts(t, DefaultGigabit())
	n.SetDown("client", true)
	if res := n.Send(Datagram{From: "client", To: "server", Payload: make([]byte, 100)}); !res.Dropped {
		t.Fatal("send from a downed host not dropped")
	}
	if st := n.HostStats("client"); st.DownDrops != 1 {
		t.Fatalf("client DownDrops = %d, want 1", st.DownDrops)
	}
}

// A datagram already in flight dies if the destination link goes down
// before delivery — the chaos link_down event must kill it.
func TestDownKillsInFlightDatagram(t *testing.T) {
	s, n, got := twoHosts(t, DefaultGigabit())
	res := n.Send(Datagram{From: "client", To: "server", Payload: make([]byte, 100)})
	if res.Dropped {
		t.Fatal("send dropped with both links up")
	}
	s.At(res.DeliverAt-1, func() { n.SetDown("server", true) })
	s.Run(time.Second)
	if len(*got) != 0 {
		t.Fatal("in-flight datagram delivered to a downed link")
	}
	st := n.HostStats("server")
	if st.DownDrops != 1 || st.LostDatagrams != 1 {
		t.Fatalf("stats = %+v, want the in-flight datagram counted dead", st)
	}
}

// Rate 1 is legal — a black hole that still charges the sender's wire
// time, unlike an administratively-down link.
func TestFullLossRateBlackHole(t *testing.T) {
	s, n, got := twoHosts(t, DefaultGigabit())
	n.SetLoss(LossConfig{Rate: 1})
	for i := 0; i < 10; i++ {
		if res := n.Send(Datagram{From: "client", To: "server", Payload: make([]byte, 2000)}); !res.Dropped {
			t.Fatal("datagram survived rate-1 loss")
		}
	}
	s.Run(time.Second)
	if len(*got) != 0 {
		t.Fatalf("%d datagrams delivered through a black hole", len(*got))
	}
	st := n.HostStats("client")
	if st.BytesSent == 0 {
		t.Fatal("rate-1 loss charged no wire time; that is SetDown's job")
	}
	if n.HostStats("server").LostDatagrams != 10 {
		t.Fatalf("lost = %d, want 10", n.HostStats("server").LostDatagrams)
	}
}

func TestSetLossRejectsOutOfRange(t *testing.T) {
	for _, bad := range []LossConfig{{Rate: -0.1}, {Rate: 1.1}, {DelayJitter: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetLoss(%+v) did not panic", bad)
				}
			}()
			_, n, _ := twoHosts(t, DefaultGigabit())
			n.SetLoss(bad)
		}()
	}
}

// The loss stream is seeded eagerly at New and draws are consumed only
// while loss is active, so a scenario that enables loss mid-run sees
// exactly the drop pattern a loss-from-start run sees. This pins the
// chaos loss_burst determinism contract.
func TestLossStreamIndependentOfEnableTime(t *testing.T) {
	pattern := func(warmup int) []bool {
		s := sim.New(42)
		n := New(s)
		n.AddHost("a", DefaultGigabit(), nil)
		n.AddHost("b", DefaultGigabit(), nil)
		for i := 0; i < warmup; i++ {
			// Lossless traffic before the burst must not consume draws.
			n.Send(Datagram{From: "a", To: "b", Payload: make([]byte, 2000)})
		}
		n.SetLoss(LossConfig{Rate: 0.3})
		drops := make([]bool, 0, 50)
		for i := 0; i < 50; i++ {
			res := n.Send(Datagram{From: "a", To: "b", Payload: make([]byte, 2000)})
			drops = append(drops, res.Dropped)
		}
		return drops
	}
	cold, warm := pattern(0), pattern(25)
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("drop pattern depends on when loss was enabled; lrng seeding is not eager")
	}
	any := false
	for _, d := range cold {
		any = any || d
	}
	if !any {
		t.Fatal("no drops at 30% loss; the pattern comparison is vacuous")
	}
}

// countingOwner records the payloads released to it.
type countingOwner struct{ released [][]byte }

func (o *countingOwner) Release(b []byte) { o.released = append(o.released, b) }

// The network ends a copy of a datagram only when it discards it at a
// downed host on arrival. A delivered copy is the handler's to release,
// and a copy dropped on send was never made.
func TestOwnerReleasedOnlyByArrivalDiscard(t *testing.T) {
	s, n, got := twoHosts(t, DefaultGigabit())
	var o countingOwner
	delivered := []byte("delivered")
	n.Send(Datagram{From: "client", To: "server", Payload: delivered, Owner: &o})
	s.Run(time.Second)
	if len(*got) != 1 || len(o.released) != 0 {
		t.Fatalf("delivered %d, released %d: a delivered copy belongs to the handler", len(*got), len(o.released))
	}

	n.SetDown("server", true)
	if res := n.Send(Datagram{From: "client", To: "server", Payload: []byte("refused"), Owner: &o}); !res.Dropped {
		t.Fatal("send to a downed host not dropped")
	}
	n.SetDown("server", false)
	if len(o.released) != 0 {
		t.Fatal("a datagram dropped on send was released; the sender still owns it")
	}

	inFlight := []byte("in flight")
	res := n.Send(Datagram{From: "client", To: "server", Payload: inFlight, Owner: &o})
	s.At(res.DeliverAt-1, func() { n.SetDown("server", true) })
	s.Run(time.Second)
	if len(o.released) != 1 || &o.released[0][0] != &inFlight[0] {
		t.Fatalf("released %q, want the in-flight payload exactly once", o.released)
	}
	if len(*got) != 1 {
		t.Fatalf("%d datagrams delivered, want only the first", len(*got))
	}
}
