package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/nfsproto"
	"repro/internal/sim"
)

func twoHosts(t *testing.T, cfg LinkConfig) (*sim.Sim, *Network, *[]Datagram) {
	t.Helper()
	s := sim.New(1)
	n := New(s)
	var got []Datagram
	n.AddHost("client", cfg, nil)
	n.AddHost("server", cfg, func(dg Datagram) { got = append(got, dg) })
	return s, n, &got
}

func TestFragmentCountStandardMTU(t *testing.T) {
	// An 8 KB NFS WRITE over UDP at MTU 1500: payload+UDP = 8420ish bytes,
	// 1472 usable per fragment -> 6 fragments, as on the paper's network.
	sz := nfsproto.WriteCallSize(8192)
	if got := FragmentCount(sz, MTUEthernet); got != 6 {
		t.Fatalf("fragments(%d, 1500) = %d, want 6", sz, got)
	}
}

func TestFragmentCountJumbo(t *testing.T) {
	sz := nfsproto.WriteCallSize(8192)
	if got := FragmentCount(sz, MTUJumbo); got != 1 {
		t.Fatalf("fragments(%d, 9000) = %d, want 1", sz, got)
	}
}

func TestFragmentCountSmall(t *testing.T) {
	if FragmentCount(0, MTUEthernet) != 1 {
		t.Fatal("empty datagram should be 1 fragment")
	}
	if FragmentCount(100, MTUEthernet) != 1 {
		t.Fatal("small datagram should be 1 fragment")
	}
	if FragmentCount(1473, MTUEthernet) != 2 {
		t.Fatal("just-over-MTU datagram should be 2 fragments")
	}
}

// Property: fragment payloads must cover the datagram exactly — count is
// ceil-ish and consistent with per-fragment capacity.
func TestFragmentCountProperty(t *testing.T) {
	f := func(nRaw uint16, jumbo bool) bool {
		n := int(nRaw)
		mtu := MTUEthernet
		if jumbo {
			mtu = MTUJumbo
		}
		frags := FragmentCount(n, mtu)
		if frags < 1 {
			return false
		}
		// All fragments fit within MTU and carry the whole payload.
		capTotal := frags * (mtu - IPHeader)
		return capTotal >= n+UDPHeader
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWireBytesMonotonicInFragments(t *testing.T) {
	// Jumbo frames must reduce total wire bytes for an 8 KB write.
	sz := nfsproto.WriteCallSize(8192)
	std := WireBytes(sz, MTUEthernet)
	jmb := WireBytes(sz, MTUJumbo)
	if jmb >= std {
		t.Fatalf("jumbo wire bytes %d >= standard %d", jmb, std)
	}
}

func TestDeliveryAndTiming(t *testing.T) {
	cfg := LinkConfig{Bandwidth: BandwidthGigabit, Propagation: 20 * time.Microsecond, MTU: MTUEthernet}
	s, n, got := twoHosts(t, cfg)
	payload := make([]byte, 1000)
	res := n.Send(Datagram{From: "client", To: "server", Payload: payload})
	s.Run(0)
	if len(*got) != 1 {
		t.Fatalf("delivered %d datagrams", len(*got))
	}
	if res.Fragments != 1 {
		t.Fatalf("fragments = %d", res.Fragments)
	}
	// 1000+8+20+38 = 1066 wire bytes at 125 MB/s = 8.528µs tx, twice
	// (uplink + downlink) plus 2x20µs propagation.
	wantWire := int64(1066)
	if res.WireBytes != wantWire {
		t.Fatalf("wire bytes = %d, want %d", res.WireBytes, wantWire)
	}
	wantDeliver := sim.Time(2*(wantWire*1e9/BandwidthGigabit)) + 40*time.Microsecond
	if res.DeliverAt != wantDeliver {
		t.Fatalf("deliver at %v, want %v", res.DeliverAt, wantDeliver)
	}
}

func TestUplinkSerialization(t *testing.T) {
	cfg := LinkConfig{Bandwidth: BandwidthGigabit, Propagation: 0, MTU: MTUEthernet}
	s, n, got := twoHosts(t, cfg)
	p := make([]byte, 1434) // 1434+8+20+38 = 1500 wire bytes = 12µs at 1Gb
	r1 := n.Send(Datagram{From: "client", To: "server", Payload: p})
	r2 := n.Send(Datagram{From: "client", To: "server", Payload: p})
	s.Run(0)
	if len(*got) != 2 {
		t.Fatalf("delivered %d", len(*got))
	}
	if r2.DeliverAt <= r1.DeliverAt {
		t.Fatal("second datagram did not queue behind first")
	}
	if r2.DeliverAt-r1.DeliverAt != 12*time.Microsecond {
		t.Fatalf("spacing = %v, want 12µs", r2.DeliverAt-r1.DeliverAt)
	}
}

func TestFullDuplex(t *testing.T) {
	cfg := LinkConfig{Bandwidth: BandwidthGigabit, Propagation: 0, MTU: MTUEthernet}
	s := sim.New(1)
	n := New(s)
	delivered := 0
	n.AddHost("a", cfg, func(Datagram) { delivered++ })
	n.AddHost("b", cfg, func(Datagram) { delivered++ })
	p := make([]byte, 1434)
	ra := n.Send(Datagram{From: "a", To: "b", Payload: p})
	rb := n.Send(Datagram{From: "b", To: "a", Payload: p})
	s.Run(0)
	if delivered != 2 {
		t.Fatalf("delivered = %d", delivered)
	}
	if ra.DeliverAt != rb.DeliverAt {
		t.Fatalf("full duplex broken: %v vs %v", ra.DeliverAt, rb.DeliverAt)
	}
}

func TestPathMTUIsMinimum(t *testing.T) {
	s := sim.New(1)
	n := New(s)
	jumboCfg := LinkConfig{Bandwidth: BandwidthGigabit, Propagation: 0, MTU: MTUJumbo}
	stdCfg := LinkConfig{Bandwidth: BandwidthGigabit, Propagation: 0, MTU: MTUEthernet}
	n.AddHost("jumbohost", jumboCfg, nil)
	n.AddHost("stdhost", stdCfg, nil)
	res := n.Send(Datagram{From: "jumbohost", To: "stdhost", Payload: make([]byte, 8192)})
	s.Run(0)
	if res.Fragments < 6 {
		t.Fatalf("fragments = %d; path MTU should clamp to 1500", res.Fragments)
	}
}

func TestSlowLink(t *testing.T) {
	fast := LinkConfig{Bandwidth: BandwidthGigabit, Propagation: 0, MTU: MTUEthernet}
	slow := LinkConfig{Bandwidth: Bandwidth100Mbit, Propagation: 0, MTU: MTUEthernet}
	s := sim.New(1)
	n := New(s)
	n.AddHost("client", fast, nil)
	n.AddHost("slowsrv", slow, nil)
	res := n.Send(Datagram{From: "client", To: "slowsrv", Payload: make([]byte, 8192)})
	s.Run(0)
	// Receive time dominated by the 100 Mb downlink: ~8.5 KB at 12.5 MB/s
	// is ~685µs.
	if res.DeliverAt < 600*time.Microsecond {
		t.Fatalf("delivery over 100Mb link too fast: %v", res.DeliverAt)
	}
}

func TestHostStats(t *testing.T) {
	cfg := LinkConfig{Bandwidth: BandwidthGigabit, Propagation: 0, MTU: MTUEthernet}
	s, n, _ := twoHosts(t, cfg)
	n.Send(Datagram{From: "client", To: "server", Payload: make([]byte, 8192)})
	s.Run(0)
	cs := n.HostStats("client")
	ss := n.HostStats("server")
	if cs.BytesSent == 0 || cs.BytesSent != ss.BytesReceived {
		t.Fatalf("stats mismatch: %+v vs %+v", cs, ss)
	}
	if cs.FramesSent != 6 {
		t.Fatalf("frames = %d, want 6", cs.FramesSent)
	}
}

func TestSetHandler(t *testing.T) {
	cfg := LinkConfig{Bandwidth: BandwidthGigabit, Propagation: 0, MTU: MTUEthernet}
	s, n, _ := twoHosts(t, cfg)
	hit := false
	n.SetHandler("server", func(Datagram) { hit = true })
	n.Send(Datagram{From: "client", To: "server", Payload: []byte{1}})
	s.Run(0)
	if !hit {
		t.Fatal("replacement handler not called")
	}
}

func TestDuplicateHostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := sim.New(1)
	n := New(s)
	n.AddHost("x", DefaultGigabit(), nil)
	n.AddHost("x", DefaultGigabit(), nil)
}

func TestUnknownHostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := sim.New(1)
	n := New(s)
	n.AddHost("x", DefaultGigabit(), nil)
	n.Send(Datagram{From: "x", To: "nope", Payload: nil})
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := sim.New(1)
	n := New(s)
	n.AddHost("x", LinkConfig{Bandwidth: 0, MTU: 1500}, nil)
}

// dropPattern sends count 8 KB datagrams through a lossy network and
// returns which were delivered.
func dropPattern(seed int64, rate float64, count int) []bool {
	s := sim.New(seed)
	n := New(s)
	cfg := LinkConfig{Bandwidth: BandwidthGigabit, Propagation: 20 * time.Microsecond, MTU: MTUEthernet}
	n.AddHost("client", cfg, nil)
	n.AddHost("server", cfg, nil)
	n.SetLoss(LossConfig{Rate: rate})
	pattern := make([]bool, count)
	payload := make([]byte, nfsproto.WriteCallSize(8192))
	for i := 0; i < count; i++ {
		pattern[i] = !n.Send(Datagram{From: "client", To: "server", Payload: payload}).Dropped
	}
	s.Run(0)
	return pattern
}

// Loss determinism: the same seed must reproduce the exact drop pattern;
// different seeds must produce different ones.
func TestLossDeterministicPerSeed(t *testing.T) {
	const n = 400
	a := dropPattern(3, 0.05, n)
	b := dropPattern(3, 0.05, n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at datagram %d", i)
		}
	}
	c := dropPattern(4, 0.05, n)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 3 and 4 produced identical drop patterns")
	}
	dropped := 0
	for _, ok := range a {
		if !ok {
			dropped++
		}
	}
	// 6 fragments at 5%: P(datagram lost) = 1-0.95^6 ~ 26%.
	if dropped == 0 || dropped == n {
		t.Fatalf("dropped %d of %d, expected a lossy-but-not-dead pattern", dropped, n)
	}
}

func TestLossZeroIsLossless(t *testing.T) {
	for _, ok := range dropPattern(1, 0, 200) {
		if !ok {
			t.Fatal("datagram dropped with loss disabled")
		}
	}
}

// A dropped datagram must never reach the handler, and the drop counters
// must record it.
func TestLossDropsNeverDeliver(t *testing.T) {
	s := sim.New(9)
	n := New(s)
	cfg := LinkConfig{Bandwidth: BandwidthGigabit, Propagation: 0, MTU: MTUEthernet}
	delivered := 0
	n.AddHost("client", cfg, nil)
	n.AddHost("server", cfg, func(Datagram) { delivered++ })
	n.SetLoss(LossConfig{Rate: 0.2})
	payload := make([]byte, nfsproto.WriteCallSize(8192))
	sent, droppedDgrams := 200, 0
	for i := 0; i < sent; i++ {
		if n.Send(Datagram{From: "client", To: "server", Payload: payload}).Dropped {
			droppedDgrams++
		}
	}
	s.Run(0)
	if delivered+droppedDgrams != sent {
		t.Fatalf("delivered %d + dropped %d != sent %d", delivered, droppedDgrams, sent)
	}
	if droppedDgrams == 0 {
		t.Fatal("expected drops at 20% fragment loss")
	}
	ss := n.HostStats("server")
	if ss.LostDatagrams != int64(droppedDgrams) || ss.FramesDropped == 0 {
		t.Fatalf("server stats %+v, want %d lost datagrams", ss, droppedDgrams)
	}
	if tot := n.Totals(); tot.FramesDropped != ss.FramesDropped {
		t.Fatalf("totals %+v disagree with server stats %+v", tot, ss)
	}
}

// Delay jitter must spread deliveries without dropping anything, and be
// reproducible per seed.
func TestDelayJitterDeterministic(t *testing.T) {
	run := func(seed int64) []sim.Time {
		s := sim.New(seed)
		n := New(s)
		cfg := LinkConfig{Bandwidth: BandwidthGigabit, Propagation: 0, MTU: MTUEthernet}
		n.AddHost("client", cfg, nil)
		n.AddHost("server", cfg, nil)
		n.SetLoss(LossConfig{DelayJitter: 500 * time.Microsecond})
		var at []sim.Time
		for i := 0; i < 50; i++ {
			res := n.Send(Datagram{From: "client", To: "server", Payload: make([]byte, 100)})
			if res.Dropped {
				t.Fatal("jitter-only config dropped a datagram")
			}
			at = append(at, res.DeliverAt)
		}
		s.Run(0)
		return at
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different delivery time at %d: %v vs %v", i, a[i], b[i])
		}
	}
	varied := false
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] != a[1]-a[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter did not vary delivery spacing")
	}
}

func TestBadLossConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := sim.New(1)
	n := New(s)
	n.SetLoss(LossConfig{Rate: 1.5})
}

func TestGigabitThroughputCeiling(t *testing.T) {
	// Blasting 1000 8 KB writes back to back should take at least
	// payload/bandwidth and approach wire saturation, never exceed it.
	cfg := LinkConfig{Bandwidth: BandwidthGigabit, Propagation: 20 * time.Microsecond, MTU: MTUEthernet}
	s, n, got := twoHosts(t, cfg)
	sz := nfsproto.WriteCallSize(8192)
	payload := make([]byte, sz)
	for i := 0; i < 1000; i++ {
		n.Send(Datagram{From: "client", To: "server", Payload: payload})
	}
	end := s.Run(0)
	if len(*got) != 1000 {
		t.Fatalf("delivered %d", len(*got))
	}
	gbps := float64(1000*sz) * 8 / end.Seconds() / 1e9
	if gbps > 1.0 {
		t.Fatalf("throughput %v Gb/s exceeds wire speed", gbps)
	}
	if gbps < 0.85 {
		t.Fatalf("throughput %v Gb/s; back-to-back sends should near-saturate", gbps)
	}
}
