package sim_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// saturatedLink is a 100 Mb/s attachment, the fleet server's downlink.
var saturatedLink = netsim.LinkConfig{Bandwidth: 12_500_000, Propagation: 20 * time.Microsecond, MTU: netsim.MTUEthernet}

// TestSaturatedLinkKeepsHeapSmall queues 1,000 datagrams on one 100 Mb/s
// link and 200 retransmit timers at two backoff delays. The deliveries
// wait in the destination's lane and the timers in one lane per delay,
// so the heap holds three lane heads while the queue counts all 1,200
// events. Everything fires at the times and in the order that plain
// Sim.At events would.
func TestSaturatedLinkKeepsHeapSmall(t *testing.T) {
	const datagrams, timers = 1000, 200
	rtos := [2]sim.Time{1100 * time.Millisecond, 2200 * time.Millisecond}

	s := sim.New(1)
	defer s.Close()
	net := netsim.New(s)
	var got []string
	record := func(what string) {
		got = append(got, fmt.Sprintf("%v %s", s.Now(), what))
		if n := s.HeapLen(); n > 3 {
			t.Fatalf("the heap holds %d events at %v", n, s.Now())
		}
	}
	net.AddHost("client", saturatedLink, nil)
	net.AddHost("server", saturatedLink, func(dg netsim.Datagram) {
		record(fmt.Sprintf("dg%d", binary.BigEndian.Uint32(dg.Payload)))
	})
	deliverAt := make([]sim.Time, datagrams)
	for i := range datagrams {
		payload := make([]byte, 8300)
		binary.BigEndian.PutUint32(payload, uint32(i))
		deliverAt[i] = net.Send(netsim.Datagram{From: "client", To: "server", Payload: payload}).DeliverAt
		if i%5 == 0 {
			id := fmt.Sprintf("timer%d", i/5)
			s.AfterFixed(rtos[i/5%2], func() { record(id) })
		}
	}
	if n := s.QueueLen(); n != datagrams+timers {
		t.Fatalf("the queue counts %d events, want %d", n, datagrams+timers)
	}
	if n := s.HeapLen(); n != 3 {
		t.Fatalf("the heap holds %d events, want the delivery lane's head and two timer lanes' heads", n)
	}
	s.Run(0)

	// The same events through Sim.At and Sim.After, in the same order.
	ref := sim.New(1)
	defer ref.Close()
	var want []string
	for i := range datagrams {
		id := fmt.Sprintf("dg%d", i)
		ref.At(deliverAt[i], func() { want = append(want, fmt.Sprintf("%v %s", ref.Now(), id)) })
		if i%5 == 0 {
			id := fmt.Sprintf("timer%d", i/5)
			ref.After(rtos[i/5%2], func() { want = append(want, fmt.Sprintf("%v %s", ref.Now(), id)) })
		}
	}
	ref.Run(0)
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("step %d: lanes fired %q, Sim.At %q", i, got[i], want[i])
			}
		}
		t.Fatalf("lanes fired %d events, Sim.At %d", len(got), len(want))
	}
}
