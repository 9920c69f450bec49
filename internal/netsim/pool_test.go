package netsim

import (
	"testing"

	"repro/internal/nfsproto"
	"repro/internal/racebuild"
	"repro/internal/sim"
)

// A delivered datagram's in-flight record is pooled, so sending and
// delivering an 8 KB datagram allocates nothing once the pools are warm:
// alone, queued behind others in the destination's delivery lane, or
// scheduled outside the lane when delay jitter puts it before the one
// sent ahead of it.
func TestSendAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
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
