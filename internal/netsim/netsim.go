// Package netsim models the paper's test network: hosts attached to a
// single Extreme Summit7i-style full-duplex switch over links with
// configurable bandwidth and propagation delay, carrying UDP datagrams
// that fragment at the IP layer when they exceed the MTU.
//
// NFS over UDP with wsize=8192 puts ~8.3 KB datagrams on a 1500-byte-MTU
// wire, so every WRITE RPC becomes six IP fragments; the paper suspects
// this fragmentation/reassembly work is where the 50 µs per sock_sendmsg
// goes and suggests jumbo packets as future work (§3.5). Fragment counts
// are first-class results here so the RPC layer can charge per-fragment
// CPU and the jumbo-frame ablation can show the saving.
package netsim

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/sim"
)

// Wire and protocol overhead constants (bytes).
const (
	// EthernetOverhead counts preamble+SFD (8), MAC header (14), FCS (4)
	// and minimum inter-frame gap (12) — what each frame costs on the wire
	// beyond its IP payload.
	EthernetOverhead = 38
	// IPHeader is the IPv4 header carried by every fragment.
	IPHeader = 20
	// UDPHeader is carried only by the first fragment of a datagram.
	UDPHeader = 8

	// MTUEthernet is the standard MTU; the paper's switch and hosts run
	// without jumbo frames (§3.1).
	MTUEthernet = 1500
	// MTUJumbo is the gigabit jumbo-frame MTU for the §3.5 ablation.
	MTUJumbo = 9000
)

// BandwidthGigabit is a 1000base-T link's bandwidth in bytes per second.
const BandwidthGigabit = 125_000_000

// Datagram is one UDP datagram traversing the network.
type Datagram struct {
	From    string
	To      string
	Payload []byte
	// Owner, if set, owns the Payload buffer and counts the copies of it
	// the network carries. Each datagram Send accepts is one copy, and
	// whoever ends that copy releases it: the receiving handler once it
	// is done with the bytes, or the network itself when it discards the
	// datagram at a downed host on arrival. A copy Send drops is never
	// made, so the sender keeps its buffer.
	Owner Owner
}

// Owner is told when a receiver is done with one copy of a datagram's
// payload.
type Owner interface {
	Release(payload []byte)
}

// Handler receives datagrams delivered to a host. It runs in event
// context on the virtual clock; implementations typically hand the
// datagram to a simulated process.
type Handler func(dg Datagram)

// LinkConfig describes one host's attachment to the switch.
type LinkConfig struct {
	// Bandwidth in bytes per second, per direction (full duplex).
	Bandwidth int64
	// Propagation is the one-way latency to the switch (cable + switch
	// forwarding).
	Propagation sim.Time
	// MTU is the link MTU; datagrams larger than MTU-28 fragment.
	MTU int
}

// DefaultGigabit returns the paper's client/server attachment: gigabit,
// standard MTU, ~20 µs one-way through the switch.
func DefaultGigabit() LinkConfig {
	return LinkConfig{Bandwidth: BandwidthGigabit, Propagation: 20_000, MTU: MTUEthernet}
}

type host struct {
	name    string
	cfg     LinkConfig
	handler Handler
	// down marks the host's link administratively down (chaos link_down):
	// nothing is sent and anything arriving is discarded at the NIC.
	down bool
	// txFreeAt / rxFreeAt serialize this host's uplink and downlink.
	txFreeAt sim.Time
	rxFreeAt sim.Time

	// Statistics. FramesRecv counts every fragment that physically
	// arrived — including fragments of datagrams later discarded at
	// reassembly — so FramesSent = FramesRecv + FramesDropped across a
	// path. BytesReceived counts only fully reassembled datagrams;
	// LostDatagrams counts the discards. DownDrops counts datagrams that
	// died against a downed link (at either end).
	BytesSent     int64
	BytesReceived int64
	FramesSent    int64
	FramesRecv    int64
	FramesDropped int64
	LostDatagrams int64
	DownDrops     int64
}

// LossConfig degrades the network: every IP fragment is independently
// dropped with probability Rate, and every delivered datagram picks up a
// uniform extra delay in [0, DelayJitter]. Both draws come from a
// dedicated random stream derived from the simulation seed, so the same
// seed always produces the same drop pattern and enabling loss never
// perturbs the draw sequence other components (e.g. CPU-cost jitter) see.
//
// Dropping at fragment granularity is what makes the transports diverge:
// an NFS/UDP WRITE is one 8 KB datagram in six fragments, and losing any
// one of them discards the whole datagram at reassembly (the paper's §1
// pain point), while a TCP-style stream sends MTU-sized segments that
// each fit in a single fragment and are retransmitted individually.
type LossConfig struct {
	// Rate is the per-fragment drop probability, in [0, 1]. Rate 1 is a
	// black hole: every fragment dies, so the link is effectively down
	// while still charging wire time on the sender's side.
	Rate float64
	// DelayJitter is the maximum extra delivery delay per datagram.
	DelayJitter sim.Time
}

// Network is a star topology around one switch.
type Network struct {
	s     *sim.Sim
	hosts map[string]*host
	loss  LossConfig
	lrng  *rand.Rand // loss/jitter stream; seeded eagerly at New
}

// New returns an empty network on the given simulator. The loss/jitter
// random stream is seeded here, unconditionally: draws are only consumed
// while a LossConfig is active, so a chaos scenario that enables loss
// mid-run sees exactly the stream a loss-from-start run would have seen,
// with no lazy-creation point to shift it.
func New(s *sim.Sim) *Network {
	return &Network{
		s:     s,
		hosts: make(map[string]*host),
		// A fixed odd multiplier decorrelates this stream from sims whose
		// seeds differ by small deltas (repeat seeds are seed, seed+1, ...).
		lrng: rand.New(rand.NewSource(s.Seed()*0x9E3779B1 + 0x6C6F7373)),
	}
}

// SetLoss installs (or, with a zero config, removes) the network's loss
// and delay-jitter model; it may be called mid-run (chaos loss_burst /
// jitter_burst windows). The random stream is seeded from the simulation
// seed at New, so loss patterns are deterministic per seed and
// independent of every other random draw in the simulation.
func (n *Network) SetLoss(cfg LossConfig) {
	if cfg.Rate < 0 || cfg.Rate > 1 {
		panic("netsim: loss rate must be in [0, 1]")
	}
	if cfg.DelayJitter < 0 {
		panic("netsim: delay jitter must be non-negative")
	}
	n.loss = cfg
}

// SetDown marks a host's link administratively down (or back up). While
// down, datagrams the host sends are dropped at its NIC without touching
// the wire, and datagrams addressed to it are discarded — including ones
// already in flight when the link went down.
func (n *Network) SetDown(name string, down bool) {
	n.mustHost(name).down = down
}

// Loss returns the network's current loss model.
func (n *Network) Loss() LossConfig { return n.loss }

// AddHost attaches a host to the switch. The handler receives datagrams
// addressed to it.
func (n *Network) AddHost(name string, cfg LinkConfig, h Handler) {
	if _, dup := n.hosts[name]; dup {
		panic("netsim: duplicate host " + name)
	}
	if cfg.Bandwidth <= 0 || cfg.MTU <= IPHeader+UDPHeader {
		panic("netsim: bad link config for " + name)
	}
	n.hosts[name] = &host{name: name, cfg: cfg, handler: h}
}

// SetHandler replaces a host's delivery handler.
func (n *Network) SetHandler(name string, h Handler) {
	n.mustHost(name).handler = h
}

func (n *Network) mustHost(name string) *host {
	h, ok := n.hosts[name]
	if !ok {
		panic("netsim: unknown host " + name)
	}
	return h
}

// FragmentCount returns how many IP fragments a UDP payload of n bytes
// needs at the given MTU. The first fragment carries the UDP header; each
// fragment's payload is a multiple of 8 bytes except the last.
func FragmentCount(n, mtu int) int {
	if n <= 0 {
		return 1
	}
	capacity := mtu - IPHeader // bytes of (UDP hdr + payload) per fragment
	total := n + UDPHeader
	if total <= capacity {
		return 1
	}
	per := capacity / 8 * 8 // fragment offsets are in 8-byte units
	frags := 0
	for total > 0 {
		take := per
		if total <= capacity {
			take = total
		}
		total -= take
		frags++
	}
	return frags
}

// WireBytes returns the total on-the-wire size (ethernet framing included)
// of a UDP payload of n bytes at the given MTU.
func WireBytes(n, mtu int) int64 {
	frags := FragmentCount(n, mtu)
	return int64(n + UDPHeader + frags*(IPHeader+EthernetOverhead))
}

// SendResult reports what a Send did, so callers can charge CPU.
type SendResult struct {
	Fragments int
	WireBytes int64
	// TxTime is how long the sender's uplink was occupied.
	TxTime sim.Time
	// DeliverAt is when the datagram lands at the receiver (meaningless
	// when Dropped).
	DeliverAt sim.Time
	// Dropped reports that the loss model discarded at least one fragment,
	// so the datagram never reassembles and the handler never runs.
	Dropped bool
	// DroppedFragments is how many of the datagram's fragments were lost.
	DroppedFragments int
}

// Send transmits a UDP datagram from one host to another. The sender's
// uplink and the receiver's downlink are FIFO-serialized; delivery happens
// when the last fragment clears the receiver's link, at which point the
// receiving host's handler runs. Send does not block the caller; the
// caller models its own CPU cost (the sock_sendmsg time) separately.
//
// Under a LossConfig each fragment is independently dropped with the
// configured probability; losing any fragment loses the whole datagram
// (IP reassembly never completes), and the wire time the fragments
// consumed is still charged to both links — lost traffic is not free.
func (n *Network) Send(dg Datagram) SendResult {
	src := n.mustHost(dg.From)
	dst := n.mustHost(dg.To)
	mtu := src.cfg.MTU
	if dst.cfg.MTU < mtu {
		mtu = dst.cfg.MTU // path MTU
	}
	frags := FragmentCount(len(dg.Payload), mtu)
	wire := WireBytes(len(dg.Payload), mtu)

	if src.down || dst.down {
		// A downed link at either end kills the datagram before it costs
		// any wire time (the sender's driver drops, or the switch port is
		// dead). No loss-model draws are consumed: the link state, not
		// chance, decided.
		if src.down {
			src.DownDrops++
		} else {
			dst.DownDrops++
		}
		// WireBytes is zero: nothing reached the wire, unlike loss-model
		// drops, which consume wire time for the fragments they carried.
		return SendResult{Fragments: frags, Dropped: true, DroppedFragments: frags}
	}

	dropped := 0
	if n.loss.Rate > 0 {
		for i := 0; i < frags; i++ {
			if n.lrng.Float64() < n.loss.Rate {
				dropped++
			}
		}
	}

	now := n.s.Now()
	txStart := now
	if src.txFreeAt > txStart {
		txStart = src.txFreeAt
	}
	txTime := sim.Time(wire * 1e9 / src.cfg.Bandwidth)
	txDone := txStart + txTime
	src.txFreeAt = txDone

	atSwitch := txDone + src.cfg.Propagation

	rxStart := atSwitch
	if dst.rxFreeAt > rxStart {
		rxStart = dst.rxFreeAt
	}
	rxTime := sim.Time(wire * 1e9 / dst.cfg.Bandwidth)
	deliverAt := rxStart + rxTime + dst.cfg.Propagation
	dst.rxFreeAt = rxStart + rxTime

	src.BytesSent += wire
	src.FramesSent += int64(frags)

	res := SendResult{Fragments: frags, WireBytes: wire, TxTime: txDone - txStart}
	if dropped > 0 {
		dst.FramesRecv += int64(frags - dropped)
		dst.FramesDropped += int64(dropped)
		dst.LostDatagrams++
		res.Dropped = true
		res.DroppedFragments = dropped
		return res
	}
	if n.loss.DelayJitter > 0 {
		deliverAt += sim.Time(n.lrng.Int63n(int64(n.loss.DelayJitter) + 1))
	}

	d := acquireInFlight()
	d.dst, d.dg, d.frags, d.wire = dst, dg, frags, wire
	n.s.At(deliverAt, d.fire)
	res.DeliverAt = deliverAt
	return res
}

// inFlight is one datagram between Send and its delivery event. The
// records are pooled, and each binds its fire callback once, so a send
// schedules its delivery without allocating a closure. The pool is a
// sync.Pool rather than a per-network free list: a fleet can have tens of
// thousands of datagrams queued on a slow link at once, and a free list
// sized to that peak would outlive the burst.
type inFlight struct {
	dst   *host
	dg    Datagram
	frags int
	wire  int64
	fire  func()
}

var inFlightPool sync.Pool

func acquireInFlight() *inFlight {
	if d, ok := inFlightPool.Get().(*inFlight); ok {
		return d
	}
	d := &inFlight{}
	d.fire = d.deliver
	return d
}

// deliver runs at delivery time. Receive accounting happens here: a
// datagram in flight when the destination link goes down dies at the
// dead port instead of reassembling, and its copy goes back to its
// owner. The record goes back to the pool before the handler runs, so a
// handler that sends (an ACK, a reply) can reuse it.
func (d *inFlight) deliver() {
	dst, dg, frags, wire := d.dst, d.dg, d.frags, d.wire
	d.dst, d.dg = nil, Datagram{}
	inFlightPool.Put(d)
	if dst.down {
		dst.FramesDropped += int64(frags)
		dst.LostDatagrams++
		dst.DownDrops++
		if dg.Owner != nil {
			dg.Owner.Release(dg.Payload)
		}
		return
	}
	dst.BytesReceived += wire
	dst.FramesRecv += int64(frags)
	if dst.handler != nil {
		dst.handler(dg)
	}
}

// Stats describes a host's traffic counters.
type Stats struct {
	BytesSent     int64
	BytesReceived int64
	FramesSent    int64
	FramesRecv    int64
	FramesDropped int64
	LostDatagrams int64
	DownDrops     int64
}

// HostStats returns the traffic counters for a host.
//
//lint:allow unusedexport the nfssim and rpcsim tests count one host's frames and losses
func (n *Network) HostStats(name string) Stats {
	h := n.mustHost(name)
	return Stats{h.BytesSent, h.BytesReceived, h.FramesSent, h.FramesRecv,
		h.FramesDropped, h.LostDatagrams, h.DownDrops}
}

// Totals returns the network-wide sums of every host's counters.
// (Summation is order-independent, so map iteration is safe here.)
func (n *Network) Totals() Stats {
	var t Stats
	for _, h := range n.hosts {
		t.BytesSent += h.BytesSent
		t.BytesReceived += h.BytesReceived
		t.FramesSent += h.FramesSent
		t.FramesRecv += h.FramesRecv
		t.FramesDropped += h.FramesDropped
		t.LostDatagrams += h.LostDatagrams
		t.DownDrops += h.DownDrops
	}
	return t
}

func (s Stats) String() string {
	return fmt.Sprintf("tx %d B/%d frames, rx %d B/%d frames",
		s.BytesSent, s.FramesSent, s.BytesReceived, s.FramesRecv)
}
