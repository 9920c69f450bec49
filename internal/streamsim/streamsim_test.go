package streamsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/racebuild"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// pair wires two endpoints over a gigabit switch and routes datagrams
// between them.
type pair struct {
	s    *sim.Sim
	net  *netsim.Network
	a, b *Endpoint
	// recvA / recvB collect records delivered to each side.
	recvA, recvB [][]byte
}

func newPair(seed int64, loss netsim.LossConfig) *pair {
	s := sim.New(seed)
	n := netsim.New(s)
	cfg := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 20 * time.Microsecond, MTU: netsim.MTUEthernet}
	n.AddHost("a", cfg, nil)
	n.AddHost("b", cfg, nil)
	if loss.Rate > 0 || loss.DelayJitter > 0 {
		n.SetLoss(loss)
	}
	p := &pair{s: s, net: n}
	p.a = NewEndpoint(s, n, DefaultConfig(netsim.MTUEthernet), "a", "b",
		func(rec []byte) { p.recvA = append(p.recvA, rec) })
	p.b = NewEndpoint(s, n, DefaultConfig(netsim.MTUEthernet), "b", "a",
		func(rec []byte) { p.recvB = append(p.recvB, rec) })
	n.SetHandler("a", func(dg netsim.Datagram) { p.a.HandleDatagram(dg.Payload) })
	n.SetHandler("b", func(dg netsim.Datagram) { p.b.HandleDatagram(dg.Payload) })
	return p
}

func record(i, size int) []byte {
	rec := make([]byte, size)
	for j := range rec {
		rec[j] = byte(i + j)
	}
	return rec
}

func TestRecordRoundTrip(t *testing.T) {
	p := newPair(1, netsim.LossConfig{})
	small := record(1, 100)
	big := record(2, 8300) // an 8 KB WRITE: spans 6 segments
	if n := p.a.SendRecord(small); n != 1 {
		t.Fatalf("small record took %d segments", n)
	}
	if n := p.a.SendRecord(big); n != SegmentCount(8304, MSSForMTU(netsim.MTUEthernet)) {
		t.Fatalf("big record took %d segments", n)
	}
	p.s.Run(time.Second)
	if len(p.recvB) != 2 {
		t.Fatalf("delivered %d records, want 2", len(p.recvB))
	}
	if !bytes.Equal(p.recvB[0], small) || !bytes.Equal(p.recvB[1], big) {
		t.Fatal("records corrupted in transit")
	}
	if p.a.Outstanding() != 0 {
		t.Fatalf("%d bytes still unacked after drain", p.a.Outstanding())
	}
	if st := p.a.Stats(); st.Retransmits != 0 || st.RTTSamples == 0 {
		t.Fatalf("lossless stats: %+v", st)
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	p := newPair(2, netsim.LossConfig{})
	for i := 0; i < 20; i++ {
		p.a.SendRecord(record(i, 500+i*37))
		p.b.SendRecord(record(100+i, 900+i*11))
	}
	p.s.Run(time.Second)
	if len(p.recvA) != 20 || len(p.recvB) != 20 {
		t.Fatalf("delivered %d/%d records, want 20/20", len(p.recvA), len(p.recvB))
	}
}

// The core reliability property: every record arrives intact, in order,
// exactly once, under heavy fragment loss in both directions.
func TestLossyDeliveryReliable(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := newPair(seed, netsim.LossConfig{Rate: 0.05})
		const records = 40
		var want [][]byte
		for i := 0; i < records; i++ {
			rec := record(i, 2000+i*301)
			want = append(want, rec)
			p.a.SendRecord(rec)
		}
		p.s.Run(10 * time.Minute)
		if len(p.recvB) != records {
			t.Fatalf("seed %d: delivered %d records, want %d", seed, len(p.recvB), records)
		}
		for i, rec := range p.recvB {
			if !bytes.Equal(rec, want[i]) {
				t.Fatalf("seed %d: record %d corrupted or reordered", seed, i)
			}
		}
		st := p.a.Stats()
		if st.Retransmits == 0 {
			t.Fatalf("seed %d: no retransmissions at 5%% loss", seed)
		}
		if p.a.Outstanding() != 0 {
			t.Fatalf("seed %d: %d bytes unacked at end", seed, p.a.Outstanding())
		}
	}
}

// Retransmissions must reproduce the original segment cuts: a short
// record-tail segment stays short even when later data was queued after
// it (regression for a reassembly wedge).
func TestRetransmitPreservesSegmentBoundaries(t *testing.T) {
	p := newPair(7, netsim.LossConfig{Rate: 0.15})
	// Records sized so the stream is full of partial tail segments.
	const records = 60
	for i := 0; i < records; i++ {
		p.a.SendRecord(record(i, 1500))
	}
	p.s.Run(10 * time.Minute)
	if len(p.recvB) != records {
		t.Fatalf("delivered %d records, want %d", len(p.recvB), records)
	}
}

// Fast retransmit: with a busy stream, an isolated loss should usually
// recover via duplicate ACKs rather than a timeout stall.
func TestFastRetransmitEngages(t *testing.T) {
	p := newPair(11, netsim.LossConfig{Rate: 0.02})
	for i := 0; i < 100; i++ {
		p.a.SendRecord(record(i, 8300))
	}
	end := p.s.Run(10 * time.Minute)
	if len(p.recvB) != 100 {
		t.Fatalf("delivered %d records", len(p.recvB))
	}
	st := p.a.Stats()
	if st.FastRetransmits == 0 {
		t.Fatalf("no fast retransmits in a busy lossy stream: %+v", st)
	}
	// A mostly-fast-recovering stream finishes far quicker than one RTO
	// per loss would allow.
	if end > 30*time.Second {
		t.Fatalf("transfer took %v; fast retransmit not effective", end)
	}
}

// Karn: RTO backs off exponentially while retransmissions fail, and RTT
// samples are never taken from retransmitted segments.
func TestRTOBackoffUnderBlackout(t *testing.T) {
	s := sim.New(1)
	n := netsim.New(s)
	cfg := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 20 * time.Microsecond, MTU: netsim.MTUEthernet}
	n.AddHost("a", cfg, nil)
	n.AddHost("b", cfg, func(netsim.Datagram) {}) // black hole: no endpoint, no acks
	ep := NewEndpoint(s, n, DefaultConfig(netsim.MTUEthernet), "a", "b", xdr.RecycleBuffer)
	ep.SendRecord(record(1, 100))
	s.Run(10 * time.Second)
	st := ep.Stats()
	// 10 s of blackout with minRTO 200 ms and doubling: 200ms, 400, 800,
	// 1.6s, 3.2s ... -> about 5 timeouts, far fewer than the 50 a fixed
	// 200 ms timer would fire.
	if st.Timeouts < 3 || st.Timeouts > 10 {
		t.Fatalf("timeouts = %d, want exponential backoff (3..10)", st.Timeouts)
	}
	if ep.RTO() <= minRTO {
		t.Fatalf("RTO %v did not back off", ep.RTO())
	}
	if st.RTTSamples != 0 {
		t.Fatal("sampled RTT from a retransmitted segment")
	}
}

func TestAdaptiveRTOTracksRTT(t *testing.T) {
	p := newPair(3, netsim.LossConfig{})
	for i := 0; i < 10; i++ {
		p.a.SendRecord(record(i, 1000))
	}
	p.s.Run(time.Second)
	// RTT here is ~100µs; the RTO must clamp at minRTO, far below the
	// 1.1 s fixed UDP timer this transport replaces.
	if got := p.a.RTO(); got != minRTO {
		t.Fatalf("RTO = %v, want minRTO %v for a fast LAN", got, minRTO)
	}
	if p.a.Stats().RTTSamples == 0 {
		t.Fatal("no RTT samples on a clean stream")
	}
}

// Determinism: identical seeds must produce identical stats under loss.
func TestDeterministicUnderLoss(t *testing.T) {
	run := func() Stats {
		p := newPair(5, netsim.LossConfig{Rate: 0.03, DelayJitter: 100 * time.Microsecond})
		for i := 0; i < 30; i++ {
			p.a.SendRecord(record(i, 3000))
		}
		p.s.Run(10 * time.Minute)
		return p.a.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different stats:\n%+v\nvs\n%+v", a, b)
	}
}

func TestMSSForMTU(t *testing.T) {
	mss := MSSForMTU(netsim.MTUEthernet)
	// A full segment (header + MSS) plus UDP/IP framing must fit exactly
	// one fragment.
	if got := netsim.FragmentCount(HeaderSize+mss, netsim.MTUEthernet); got != 1 {
		t.Fatalf("full segment fragments = %d, want 1", got)
	}
	if got := netsim.FragmentCount(HeaderSize+mss+1, netsim.MTUEthernet); got != 2 {
		t.Fatalf("oversized segment fragments = %d, want 2", got)
	}
}

func TestSegmentCount(t *testing.T) {
	for _, tc := range []struct{ n, mss, want int }{
		{0, 1452, 1}, {1, 1452, 1}, {1452, 1452, 1}, {1453, 1452, 2}, {8304, 1452, 6},
	} {
		if got := SegmentCount(tc.n, tc.mss); got != tc.want {
			t.Fatalf("SegmentCount(%d, %d) = %d, want %d", tc.n, tc.mss, got, tc.want)
		}
	}
}

func TestBadConfigPanics(t *testing.T) {
	s := sim.New(1)
	n := netsim.New(s)
	n.AddHost("a", netsim.DefaultGigabit(), nil)
	for i, cfg := range []Config{{MSS: 0}, {MSS: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %d should panic", i)
				}
			}()
			NewEndpoint(s, n, cfg, "a", "a", xdr.RecycleBuffer)
		}()
	}
}

func TestShortSegmentPanics(t *testing.T) {
	s := sim.New(1)
	n := netsim.New(s)
	n.AddHost("a", netsim.DefaultGigabit(), nil)
	ep := NewEndpoint(s, n, DefaultConfig(netsim.MTUEthernet), "a", "a", xdr.RecycleBuffer)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ep.HandleDatagram([]byte{1, 2, 3})
}

// Sanity-print one lossy run's stats when -v is set (documentation aid).
func TestStatsShape(t *testing.T) {
	p := newPair(1, netsim.LossConfig{Rate: 0.02})
	for i := 0; i < 20; i++ {
		p.a.SendRecord(record(i, 8300))
	}
	p.s.Run(10 * time.Minute)
	st := p.a.Stats()
	if st.RecordsSent != 20 || p.b.Stats().RecordsDelivered != 20 {
		t.Fatalf("record accounting: %+v / %+v", st, p.b.Stats())
	}
	if st.WireBytes == 0 || st.SegmentsSent < 20 {
		t.Fatalf("wire accounting: %+v", st)
	}
	t.Log(fmt.Sprintf("%+v", st))
}

// recyclingPair wires two endpoints whose record consumer behaves like
// rpcsim's and the server's: it checks each record and hands its buffer
// back to the pool at once. Before recycling it scribbles over the
// record, so a buffer the endpoint kept using after handing it over
// would corrupt a later record.
func recyclingPair(t testing.TB, seed int64, loss netsim.LossConfig) (s *sim.Sim, a *Endpoint, delivered *int) {
	s = sim.New(seed)
	n := netsim.New(s)
	cfg := netsim.LinkConfig{Bandwidth: netsim.BandwidthGigabit, Propagation: 20 * time.Microsecond, MTU: netsim.MTUEthernet}
	n.AddHost("a", cfg, nil)
	n.AddHost("b", cfg, nil)
	if loss.Rate > 0 {
		n.SetLoss(loss)
	}
	delivered = new(int)
	a = NewEndpoint(s, n, DefaultConfig(netsim.MTUEthernet), "a", "b", xdr.RecycleBuffer)
	b := NewEndpoint(s, n, DefaultConfig(netsim.MTUEthernet), "b", "a", func(rec []byte) {
		for j := range rec {
			if rec[j] != byte(*delivered+j) {
				t.Fatalf("record %d corrupted at byte %d", *delivered, j)
			}
			rec[j] = 0xEE
		}
		*delivered++
		xdr.RecycleBuffer(rec)
	})
	n.SetHandler("a", func(dg netsim.Datagram) { a.HandleDatagram(dg.Payload) })
	n.SetHandler("b", func(dg netsim.Datagram) { b.HandleDatagram(dg.Payload) })
	return s, a, delivered
}

// Segment and record buffers have exactly one owner: with every
// record recycled (and poisoned) the moment it is delivered, a lossy
// stream still delivers every record intact and in order.
func TestRecycledBuffersStayIntactUnderLoss(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		s, a, delivered := recyclingPair(t, seed, netsim.LossConfig{Rate: 0.05})
		const records = 60
		for i := 0; i < records; i++ {
			a.SendRecord(record(i, 1000+i*271))
		}
		s.Run(10 * time.Minute)
		if *delivered != records {
			t.Fatalf("seed %d: delivered %d records, want %d", seed, *delivered, records)
		}
		if a.Stats().Retransmits == 0 {
			t.Fatalf("seed %d: no retransmissions, so no segment waited out of order", seed)
		}
	}
}

// The steady-state record path allocates nothing: the send window and
// the segment cuts reuse their arrays, segments come from the stock and
// records from the wire-buffer pool, and the layers below recycle
// deliveries and timers.
func TestSteadyStateRecordAllocatesNothing(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	s, a, delivered := recyclingPair(t, 1, netsim.LossConfig{})
	rec := make([]byte, 8300)
	sendOne := func() {
		for j := range rec {
			rec[j] = byte(*delivered + j)
		}
		a.SendRecord(rec)
		s.Run(0)
	}
	for i := 0; i < 50; i++ {
		sendOne() // grow the windows, the pools and the event heap
	}
	if n := testing.AllocsPerRun(200, sendOne); n != 0 {
		t.Fatalf("an 8 KB record costs %.2f allocations", n)
	}
	if a.Outstanding() != 0 {
		t.Fatalf("%d bytes unacknowledged", a.Outstanding())
	}
}

// Once a stream drains, every segment buffer its endpoints took is back
// in the simulation's stock or parked in an endpoint's out-of-order map:
// on a lossy, jittered stream in both directions, and on one whose
// receiver's link goes down with segments in flight, which the network
// discards and hands back to their owner, the stock.
func TestDrainedStreamStocksEverySegment(t *testing.T) {
	for _, c := range []struct {
		name string
		loss netsim.LossConfig
		down bool
	}{
		{"lossy", netsim.LossConfig{Rate: 0.03, DelayJitter: 100 * time.Microsecond}, false},
		{"link down", netsim.LossConfig{}, true},
	} {
		p := newPair(7, c.loss)
		sp := p.a.spares
		missing := func() int { return sp.made - len(sp.segments) - len(p.a.ooo) - len(p.b.ooo) }
		before := missing()
		const records = 30
		for i := 0; i < records; i++ {
			p.a.SendRecord(record(i, 3000))
			p.b.SendRecord(record(i, 500))
		}
		if c.down {
			p.s.After(100*time.Microsecond, func() { p.net.SetDown("b", true) })
			p.s.After(5*time.Millisecond, func() { p.net.SetDown("b", false) })
		}
		p.s.Run(0)
		if len(p.recvA) != records || len(p.recvB) != records {
			t.Fatalf("%s: delivered %d and %d records, want %d each", c.name, len(p.recvA), len(p.recvB), records)
		}
		if c.down && p.net.HostStats("b").LostDatagrams == 0 {
			t.Fatalf("%s: no segment died in flight at the downed link", c.name)
		}
		if sp.made == 0 {
			t.Fatalf("%s: the stock made no segment buffer", c.name)
		}
		if got := missing(); got != before {
			t.Errorf("%s: %d segment buffers are missing from the stock, want %d", c.name, got, before)
		}
		p.s.Close()
	}
}

// BenchmarkRecord8k sends one 8 KB record per op across an endpoint
// pair and runs the stream until it is delivered and acknowledged: six
// data segments, six ACKs and the record reassembly.
func BenchmarkRecord8k(b *testing.B) { benchRecords(b, 0) }

// BenchmarkRecord8kLoss1 is the same stream at 1% fragment loss, so
// retransmissions and out-of-order parking are on the path.
func BenchmarkRecord8kLoss1(b *testing.B) { benchRecords(b, 0.01) }

func benchRecords(b *testing.B, loss float64) {
	s, a, delivered := recyclingPair(b, 1, netsim.LossConfig{Rate: loss})
	rec := make([]byte, 8300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rec {
			rec[j] = byte(i + j)
		}
		a.SendRecord(rec)
		s.Run(0)
	}
	if *delivered != b.N {
		b.Fatalf("delivered %d of %d records", *delivered, b.N)
	}
}
