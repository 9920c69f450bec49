package netsim

import (
	"testing"
	"time"

	"repro/internal/nfsproto"
	"repro/internal/sim"
)

// A delivered datagram's in-flight record comes from the simulation's
// stock, so sending and delivering an 8 KB datagram allocates nothing
// once the stock is warm: alone, queued behind others in the
// destination's delivery lane, or scheduled outside the lane when delay
// jitter puts it before the one sent ahead of it.
func TestSendAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name  string
		burst int
		loss  LossConfig
	}{
		{"alone", 1, LossConfig{}},
		{"queued", 3, LossConfig{}},
		{"jittered", 3, LossConfig{DelayJitter: 200_000}},
	} {
		s := sim.New(1)
		n := New(s)
		n.SetLoss(c.loss)
		delivered := 0
		n.AddHost("a", DefaultGigabit(), nil)
		n.AddHost("b", DefaultGigabit(), func(Datagram) { delivered++ })
		payload := make([]byte, nfsproto.WriteCallSize(8192))
		send := func() {
			for range c.burst {
				n.Send(Datagram{From: "a", To: "b", Payload: payload})
			}
			s.Run(0)
		}
		for i := 0; i < 10; i++ {
			send()
		}
		if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
			t.Errorf("%s: a send costs %.2f allocations", c.name, allocs)
		}
		if want := 111 * c.burst; delivered != want {
			t.Errorf("%s: delivered %d of %d datagrams", c.name, delivered, want)
		}
		s.Close()
	}
}

// A handler that sends from inside a delivery reuses the record that
// delivery just released without disturbing the datagram it was handed.
func TestHandlerMaySendDuringDelivery(t *testing.T) {
	s := sim.New(1)
	n := New(s)
	var echoed []string
	n.AddHost("a", DefaultGigabit(), func(dg Datagram) { echoed = append(echoed, string(dg.Payload)) })
	n.AddHost("b", DefaultGigabit(), func(dg Datagram) {
		n.Send(Datagram{From: "b", To: "a", Payload: []byte("re:" + string(dg.Payload))})
		if dg.From != "a" || string(dg.Payload[:4]) != "ping" {
			t.Errorf("datagram changed under its handler: %+v", dg)
		}
	})
	for _, p := range []string{"ping1", "ping2", "ping3"} {
		n.Send(Datagram{From: "a", To: "b", Payload: []byte(p)})
	}
	s.Run(0)
	if len(echoed) != 3 || echoed[0] != "re:ping1" || echoed[2] != "re:ping3" {
		t.Fatalf("echoes = %q", echoed)
	}
}

// Once a network drains, its simulation's stock holds every in-flight
// record the simulation made: those delivered, those delivered to a
// handler that sends a reply in turn, and those discarded at a link
// that went down while they were in flight.
func TestDrainedNetworkStocksEveryRecord(t *testing.T) {
	s := sim.New(1)
	defer s.Close()
	n := New(s)
	st := n.inFlight
	missing := st.made - len(st.free)
	n.SetLoss(LossConfig{Rate: 0.05, DelayJitter: 200_000})
	replies := 0
	n.AddHost("a", DefaultGigabit(), func(Datagram) { replies++ })
	n.AddHost("b", DefaultGigabit(), func(dg Datagram) {
		n.Send(Datagram{From: "b", To: "a", Payload: dg.Payload[:100]})
	})
	payload := make([]byte, nfsproto.WriteCallSize(8192))
	for range 200 {
		n.Send(Datagram{From: "a", To: "b", Payload: payload})
	}
	s.After(5*time.Millisecond, func() { n.SetDown("b", true) })
	s.After(10*time.Millisecond, func() { n.SetDown("b", false) })
	s.Run(0)
	if replies == 0 || n.HostStats("b").DownDrops == 0 {
		t.Fatalf("%d replies and %d datagrams dead at the downed link, want some of each", replies, n.HostStats("b").DownDrops)
	}
	if st.made == missing {
		t.Fatal("the network took no in-flight record")
	}
	if got := st.made - len(st.free); got != missing {
		t.Fatalf("%d in-flight records are missing from the stock, want %d", got, missing)
	}
}

// BenchmarkSend8k sends one 8 KB datagram (six fragments at MTU 1500)
// per op and runs the simulation until it is delivered.
func BenchmarkSend8k(b *testing.B) {
	s := sim.New(1)
	n := New(s)
	n.AddHost("a", DefaultGigabit(), nil)
	n.AddHost("b", DefaultGigabit(), func(Datagram) {})
	payload := make([]byte, nfsproto.WriteCallSize(8192))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(Datagram{From: "a", To: "b", Payload: payload})
		s.Run(0)
	}
}
