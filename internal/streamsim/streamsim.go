// Package streamsim is a TCP-style reliable byte-stream transport layered
// on netsim, built for the lossy-network scenarios the paper motivates:
// NFS over UDP loses a whole 8 KB WRITE when one 1500-byte fragment is
// dropped and then stalls on a fixed retransmit timer, while a stream
// transport sends MTU-sized segments that each fit in a single IP
// fragment, retransmits only what was lost, and adapts its timeout to the
// measured round-trip time.
//
// An Endpoint is one side of an established connection (no handshake is
// modeled; both sides start at sequence 0). It carries record-marked
// messages — each record is prefixed with a 4-byte length, as RPC over
// TCP frames calls (RFC 1831 §10) — and implements:
//
//   - segmentation at the connection MSS, so segments never fragment;
//   - cumulative acknowledgements, with out-of-order segment buffering;
//   - Jacobson RTT estimation (SRTT/RTTVAR) driving the RTO;
//   - Karn's algorithm: no RTT samples from retransmitted segments, and
//     exponential RTO backoff on timeout;
//   - fast retransmit after three duplicate ACKs, so an isolated loss in
//     a busy stream recovers in about a round trip instead of an RTO.
//
// Endpoints run entirely in event context on the virtual clock: sending
// never blocks, and delivery happens through the onRecord callback. CPU
// costs are charged by the layers above (rpcsim, server), not here —
// exactly as netsim leaves sock_sendmsg accounting to its callers.
//
// The steady-state data path allocates nothing. The send window and the
// segment cuts live in reused FIFOs. Their arrays, and the segment
// buffers, come from the stock the endpoints of a simulation share and
// Close hands on to the next one; record payloads are buffers from the
// xdr wire-buffer pool. Each buffer has one owner at a time:
//
//   - a segment payload belongs to its datagram: the sender returns it
//     to the stock when the network drops it on send, the network when
//     it discards it at a downed host (the stock is the datagram's
//     owner), the receiving endpoint when HandleDatagram is done with
//     it, or, for a segment that arrived ahead of a hole, when the hole
//     fills and its bytes are consumed;
//   - a record passed to onRecord belongs to the callback, which
//     recycles it (xdr.RecycleBuffer) once its bytes are dead or simply
//     drops it for the GC.
//
// In-order stream bytes are copied once, from the segment straight into
// the record they belong to; there is no separate reassembly buffer.
package streamsim

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/fifo"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/xdr"
)

// Segment header layout: flags (4 bytes), seq (8), ack (8), then payload.
// Close to a real 20-byte TCP header, so wire sizes stay honest.
const HeaderSize = 20

const flagAck = 1 // pure acknowledgement, no payload

// The retransmission timer's calibration.
const (
	// initialRTO applies until the first RTT sample (RFC 6298's 1 s).
	initialRTO sim.Time = time.Second
	// minRTO and maxRTO clamp the computed RTO: 200 ms, as Linux, and
	// 60 s (RFC 6298's floor for the upper bound; Linux caps at 120 s).
	minRTO sim.Time = 200 * time.Millisecond
	maxRTO sim.Time = 60 * time.Second
	// dupAckThreshold duplicate ACKs trigger fast retransmit.
	dupAckThreshold = 3
)

// Config holds the stream transport's segment size.
type Config struct {
	// MSS is the maximum data bytes per segment. DefaultConfig sizes it
	// so header + MSS + UDP/IP framing exactly fills one MTU.
	MSS int
}

// MSSForMTU returns the largest segment payload that fits in one fragment
// at the given MTU, accounting for the stream header and netsim's UDP/IP
// framing.
func MSSForMTU(mtu int) int {
	return mtu - netsim.IPHeader - netsim.UDPHeader - HeaderSize
}

// DefaultConfig returns the calibrated stream config for a path MTU.
func DefaultConfig(mtu int) Config {
	return Config{MSS: MSSForMTU(mtu)}
}

// SegmentCount returns how many MSS-sized segments n stream bytes need.
func SegmentCount(n, mss int) int {
	if n <= 0 {
		return 1
	}
	return (n + mss - 1) / mss
}

// Stats counts one endpoint's activity.
type Stats struct {
	SegmentsSent     int64
	Retransmits      int64 // all data retransmissions (timeout + fast)
	FastRetransmits  int64
	Timeouts         int64
	RecordsSent      int64
	RecordsDelivered int64
	WireBytes        int64 // total on-the-wire bytes sent, framing included
	RTTSamples       int64
}

// Endpoint is one side of a reliable stream connection. The owner routes
// datagrams arriving at the local host into HandleDatagram (endpoints do
// not install netsim handlers themselves, so a server can demultiplex
// many connections on one host).
type Endpoint struct {
	s        *sim.Sim
	net      *netsim.Network
	cfg      Config
	local    string
	remote   string
	onRecord func([]byte)
	spares   *spares

	// Sender state. snd holds the unacknowledged window: byte i of
	// snd.Items() is stream sequence sndUna+i. segs records the original
	// segment cuts of the window, front first: retransmissions must
	// reproduce those cuts exactly, because the receiver's out-of-order
	// buffer is keyed by segment start sequence — a retransmission that
	// re-sliced the stream (e.g. a short record-tail segment regrown to
	// a full MSS once more data was queued) would land mid-boundary and
	// wedge reassembly.
	snd      fifo.Queue[byte]
	segs     fifo.Queue[sndSeg]
	sndUna   int64
	sndNxt   int64
	rtxTimer sim.Event
	rto      sim.Time
	srtt     sim.Time
	rttvar   sim.Time
	hasSRTT  bool
	backoff  uint
	// timeout is onTimeout bound once, so arming the timer does not
	// allocate a method-value closure each time.
	timeout func()

	// Karn timing: one segment is timed at a time; any retransmission
	// invalidates the sample.
	timedEnd   int64
	timedAt    sim.Time
	timedValid bool

	dupAcks int

	// Receiver state. ooo holds segments that arrived beyond a hole,
	// whole datagram payloads keyed by start sequence. In-order bytes go
	// straight into rec, the record under assembly, once its 4-byte
	// length mark (collected in mark) is complete; finished records wait
	// in ready until the segment that completed them has been fully
	// integrated, then go to onRecord in stream order.
	rcvNxt int64
	ooo    map[int64][]byte
	mark   [4]byte
	markN  int
	rec    []byte
	recN   int
	ready  fifo.Queue[[]byte]

	stats Stats
}

// sndSeg is one transmitted-but-unacknowledged segment.
type sndSeg struct {
	seq int64
	n   int
}

// spares is streamsim's stock (sim.Stock), shared by every endpoint of
// one simulation and handed on to the next by Close. It holds the
// backing arrays of drained send windows, segment cuts and ready lists:
// a window that drains at each acknowledgement and refills at the next
// record, or a new connection's, takes an array earlier ones grew
// instead of growing its own from empty. It also holds the free segment
// buffers, in one size class of capacity HeaderSize+MSS; made counts the
// buffers it has made and not dropped. Segment bytes are always written
// before they are read, so a free buffer keeps nothing of the
// simulation that freed it.
type spares struct {
	snd      fifo.Spares[byte]
	segs     fifo.Spares[sndSeg]
	ready    fifo.Spares[[]byte]
	segments [][]byte
	made     int
}

var spareStock = sim.NewStock[spares]()

// segment returns a free segment buffer of length n, or a new one of
// capacity size. A free buffer too small for n (one cut for a smaller
// MSS) is dropped, not put back, so the stock settles on buffers that
// fit.
func (sp *spares) segment(n, size int) []byte {
	if k := len(sp.segments); k > 0 {
		b := sp.segments[k-1]
		sp.segments = sp.segments[:k-1]
		if cap(b) >= n {
			return b[:n]
		}
		sp.made--
	}
	sp.made++
	return make([]byte, n, size)
}

// Release takes back a segment buffer whose bytes are dead. The stock
// owns every segment datagram (netsim.Owner), so the network returns a
// segment it discards at a downed host here.
func (sp *spares) Release(b []byte) { sp.segments = append(sp.segments, b) }

// NewEndpoint creates one side of a connection between local and remote.
// Complete records arriving from the peer are handed to onRecord in event
// context; the callback owns each record (xdr.RecycleBuffer discards it).
func NewEndpoint(s *sim.Sim, net *netsim.Network, cfg Config, local, remote string, onRecord func([]byte)) *Endpoint {
	if cfg.MSS < 1 {
		panic("streamsim: MSS must be positive")
	}
	sp := spareStock.Of(s)
	e := &Endpoint{
		s: s, net: net, cfg: cfg, local: local, remote: remote,
		onRecord: onRecord,
		spares:   sp,
		rto:      initialRTO,
		ooo:      make(map[int64][]byte),
	}
	e.timeout = e.onTimeout
	e.snd.UseSpares(&sp.snd)
	e.segs.UseSpares(&sp.segs)
	e.ready.UseSpares(&sp.ready)
	return e
}

// Stats returns a copy of the endpoint's counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Outstanding returns the number of sent-but-unacknowledged stream bytes.
func (e *Endpoint) Outstanding() int64 { return e.sndNxt - e.sndUna }

// SendRecord queues one record (4-byte length mark + payload) on the
// stream and transmits every new segment immediately. It returns the
// number of segments generated, so callers can charge per-segment CPU.
func (e *Endpoint) SendRecord(rec []byte) int {
	var mark [4]byte
	binary.BigEndian.PutUint32(mark[:], uint32(len(rec)))
	e.snd.Append(mark[:])
	e.snd.Append(rec)
	e.stats.RecordsSent++
	sent := 0
	for end := e.sndUna + int64(e.snd.Len()); e.sndNxt < end; {
		n := int(end - e.sndNxt)
		if n > e.cfg.MSS {
			n = e.cfg.MSS
		}
		e.segs.Push(sndSeg{seq: e.sndNxt, n: n})
		e.sendSegment(e.sndNxt, n, false)
		e.sndNxt += int64(n)
		sent++
	}
	return sent
}

// sendSegment transmits stream bytes [seq, seq+n) (or a pure ACK when
// n == 0) and manages the Karn timing state and the retransmit timer.
// The payload is a stocked buffer whose ownership passes to the datagram.
func (e *Endpoint) sendSegment(seq int64, n int, isRtx bool) {
	payload := e.spares.segment(HeaderSize+n, HeaderSize+e.cfg.MSS)
	var flags uint32
	if n == 0 {
		flags = flagAck
	}
	binary.BigEndian.PutUint32(payload[0:4], flags)
	binary.BigEndian.PutUint64(payload[4:12], uint64(seq))
	binary.BigEndian.PutUint64(payload[12:20], uint64(e.rcvNxt))
	if n > 0 {
		off := int(seq - e.sndUna)
		copy(payload[HeaderSize:], e.snd.Items()[off:off+n])
	}
	res := e.net.Send(netsim.Datagram{From: e.local, To: e.remote, Payload: payload, Owner: e.spares})
	if res.Dropped {
		// Lost on the way out: no delivery will ever hand it over.
		e.spares.Release(payload)
	}
	e.stats.WireBytes += res.WireBytes
	if n == 0 {
		return
	}
	e.stats.SegmentsSent++
	if isRtx {
		e.stats.Retransmits++
		// Karn: an ACK covering a retransmitted range is ambiguous.
		e.timedValid = false
	} else if !e.timedValid {
		e.timedEnd = seq + int64(n)
		e.timedAt = e.s.Now()
		e.timedValid = true
	}
	if e.rtxTimer == (sim.Event{}) {
		e.armTimer()
	}
}

func (e *Endpoint) curRTO() sim.Time {
	rto := e.rto << e.backoff
	if rto > maxRTO || rto < e.rto { // clamp, guard shift overflow
		rto = maxRTO
	}
	return rto
}

func (e *Endpoint) armTimer() {
	e.rtxTimer = e.s.After(e.curRTO(), e.timeout)
}

func (e *Endpoint) stopTimer() {
	if e.rtxTimer != (sim.Event{}) {
		e.rtxTimer.Cancel()
		e.rtxTimer = sim.Event{}
	}
}

// onTimeout retransmits the oldest unacknowledged segment and backs the
// RTO off exponentially (Karn's second rule). The retransmission itself
// re-arms the timer (sendSegment arms whenever none is pending), at the
// backed-off RTO.
func (e *Endpoint) onTimeout() {
	e.rtxTimer = sim.Event{}
	if e.sndUna >= e.sndNxt {
		return // everything acked while the timer was in flight
	}
	e.stats.Timeouts++
	e.backoff++
	e.dupAcks = 0
	e.retransmitFront()
}

// retransmitFront resends the oldest unacknowledged segment with its
// original cut.
func (e *Endpoint) retransmitFront() {
	if e.segs.Len() == 0 {
		return
	}
	front := e.segs.Items()[0]
	e.sendSegment(front.seq, front.n, true)
}

// sampleRTT folds one measurement into SRTT/RTTVAR (RFC 6298 §2).
func (e *Endpoint) sampleRTT(r sim.Time) {
	e.stats.RTTSamples++
	if !e.hasSRTT {
		e.srtt = r
		e.rttvar = r / 2
		e.hasSRTT = true
	} else {
		d := e.srtt - r
		if d < 0 {
			d = -d
		}
		e.rttvar = (3*e.rttvar + d) / 4
		e.srtt = (7*e.srtt + r) / 8
	}
	rto := e.srtt + 4*e.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	e.rto = rto
}

// HandleDatagram processes one segment arriving at the local host. The
// owner's netsim handler must route datagrams from the peer here. The
// endpoint takes ownership of payload: it returns the buffer to the
// stock, so the caller must not touch it afterwards.
func (e *Endpoint) HandleDatagram(payload []byte) {
	if len(payload) < HeaderSize {
		panic(fmt.Sprintf("streamsim %s<-%s: short segment (%d bytes)", e.local, e.remote, len(payload)))
	}
	flags := binary.BigEndian.Uint32(payload[0:4])
	seq := int64(binary.BigEndian.Uint64(payload[4:12]))
	ack := int64(binary.BigEndian.Uint64(payload[12:20]))
	data := payload[HeaderSize:]

	e.handleAck(ack, flags&flagAck != 0 && len(data) == 0)
	if len(data) == 0 {
		e.spares.Release(payload)
		return
	}
	if !e.acceptData(seq, payload) {
		e.spares.Release(payload)
	}
	e.deliverReady()
	// Acknowledge every data segment immediately; duplicate ACKs are
	// what lets the peer fast-retransmit.
	e.sendSegment(0, 0, false)
}

// handleAck advances the send window and runs fast retransmit.
func (e *Endpoint) handleAck(ack int64, pure bool) {
	switch {
	case ack > e.sndUna:
		if e.timedValid && ack >= e.timedEnd {
			e.sampleRTT(e.s.Now() - e.timedAt)
			e.timedValid = false
		}
		e.snd.Drop(int(ack - e.sndUna))
		e.sndUna = ack
		for e.segs.Len() > 0 {
			if front := e.segs.Items()[0]; front.seq+int64(front.n) > ack {
				break
			}
			e.segs.Drop(1)
		}
		e.dupAcks = 0
		e.backoff = 0
		e.stopTimer()
		if e.sndUna < e.sndNxt {
			e.armTimer()
		}
	case pure && ack == e.sndUna && e.sndUna < e.sndNxt:
		// Duplicate ACK with data outstanding: the peer is receiving
		// segments beyond a hole.
		e.dupAcks++
		if e.dupAcks == dupAckThreshold {
			e.stats.FastRetransmits++
			e.retransmitFront()
		}
	}
}

// acceptData integrates one data segment (its whole datagram payload)
// into the receive stream. It reports whether the endpoint kept the
// payload, parked as an out-of-order segment; otherwise the caller owns
// it still.
func (e *Endpoint) acceptData(seq int64, payload []byte) (kept bool) {
	switch {
	case seq == e.rcvNxt:
		e.consume(payload[HeaderSize:])
		for {
			next, ok := e.ooo[e.rcvNxt]
			if !ok {
				break
			}
			delete(e.ooo, e.rcvNxt)
			e.consume(next[HeaderSize:])
			e.spares.Release(next)
		}
	case seq > e.rcvNxt:
		if _, dup := e.ooo[seq]; !dup {
			e.ooo[seq] = payload
			return true
		}
	}
	// seq < rcvNxt: spurious retransmission of delivered data; drop.
	return false
}

// consume appends in-order stream bytes to the record under assembly,
// moving each record to ready as its last byte arrives.
func (e *Endpoint) consume(data []byte) {
	e.rcvNxt += int64(len(data))
	for {
		if e.markN < len(e.mark) {
			k := copy(e.mark[e.markN:], data)
			e.markN += k
			data = data[k:]
			if e.markN < len(e.mark) {
				return
			}
			e.rec = xdr.AcquireBuffer(int(binary.BigEndian.Uint32(e.mark[:])))
			e.recN = 0
		}
		k := copy(e.rec[e.recN:], data)
		e.recN += k
		data = data[k:]
		if e.recN < len(e.rec) {
			return
		}
		e.ready.Push(e.rec)
		e.rec, e.markN = nil, 0
	}
}

// deliverReady hands every completed record to onRecord, in stream order.
func (e *Endpoint) deliverReady() {
	for e.ready.Len() > 0 {
		rec := e.ready.Pop()
		e.stats.RecordsDelivered++
		e.onRecord(rec)
	}
}
