// Package rpcsim models the Linux 2.4 SunRPC client transport: a bounded
// slot table of in-flight requests, xid assignment and reply matching,
// retransmission timers, and — critically for this paper — the global
// kernel lock discipline around the socket send path.
//
// In the stock 2.4.4 kernel the RPC layer holds the big kernel lock (BKL)
// across sock_sendmsg(), which the paper measures at ~50 µs of
// network-layer CPU per 8 KB WRITE ("almost 90% of the time per request
// spent waiting ... to acquire the kernel lock", §3.5). Because the
// network stack stopped needing the BKL in 2.3, the paper's fix releases
// the lock around sock_sendmsg() and reacquires it afterwards. Both
// disciplines are implemented here as LockPolicy values.
package rpcsim

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/sim"
	"repro/internal/streamsim"
	"repro/internal/xdr"
)

// TransportKind selects the wire protocol under the RPC layer.
type TransportKind int

const (
	// TransportUDP is the classic NFSv3/UDP transport: one datagram per
	// RPC message, fragmented by IP, with whole-message retransmission on
	// an exponentially backed-off timer. Losing one fragment loses the
	// whole message.
	TransportUDP TransportKind = iota
	// TransportTCP runs RPC over a streamsim reliable byte stream:
	// record-marked messages in MTU-sized segments, per-segment
	// retransmission with an adaptive (Karn/Jacobson) RTO, and no
	// loss amplification.
	TransportTCP
)

func (k TransportKind) String() string {
	if k == TransportTCP {
		return "tcp"
	}
	return "udp"
}

// ParseTransport resolves a transport name as printed by String.
func ParseTransport(name string) (TransportKind, error) {
	switch name {
	case "udp":
		return TransportUDP, nil
	case "tcp":
		return TransportTCP, nil
	}
	return 0, fmt.Errorf("rpcsim: unknown transport %q (have udp, tcp)", name)
}

// defaultMaxRetransmitTimeout caps UDP retransmit backoff (the 2.4
// xprt's to_maxval): applied by DefaultConfig and by New when the
// config leaves MaxRetransmitTimeout zero.
const defaultMaxRetransmitTimeout sim.Time = 60_000_000_000

// LockPolicy selects the BKL discipline around sock_sendmsg.
type LockPolicy int

const (
	// HoldBKLAcrossSend is the stock 2.4.4 behaviour: the BKL is held for
	// the whole transmit path including the network layer.
	HoldBKLAcrossSend LockPolicy = iota
	// ReleaseBKLForSend is the paper's fix: drop the BKL before calling
	// into the network layer, reacquire it on return.
	ReleaseBKLForSend
)

func (l LockPolicy) String() string {
	if l == ReleaseBKLForSend {
		return "no-lock"
	}
	return "bkl"
}

// Config holds the transport's cost model and policy.
type Config struct {
	// MaxSlots bounds concurrently outstanding RPCs (the 2.4 xprt slot
	// table holds 16 entries).
	MaxSlots int
	// SendCPUBase + SendCPUPerFragment model the sock_sendmsg cost: UDP
	// send, IP fragmentation and driver work, per datagram and per
	// fragment. At six fragments per 8 KB WRITE these default to the
	// paper's ~50 µs.
	SendCPUBase        sim.Time
	SendCPUPerFragment sim.Time
	// RPCPrepCPU is the xprt/xdr work outside the socket call (slot setup,
	// header marshaling). Held under BKL in both policies.
	RPCPrepCPU sim.Time
	// ReplyCPUBase + ReplyCPUPerFragment model softirq receive processing
	// (IP reassembly + UDP delivery) per reply.
	ReplyCPUBase        sim.Time
	ReplyCPUPerFragment sim.Time
	// ReplyBKLHold is the time the reply path holds the BKL to update RPC
	// state (not removed by the paper's fix).
	ReplyBKLHold sim.Time
	// RetransmitTimeout is the initial timeout for resending an
	// unanswered call (classic UDP NFS). Each retransmission doubles it,
	// Karn-style, up to MaxRetransmitTimeout.
	RetransmitTimeout sim.Time
	// MaxRetransmitTimeout caps the exponential backoff (the 2.4 xprt's
	// to_maxval; 0 means the New default of 60 s).
	MaxRetransmitTimeout sim.Time
	// MaxRetries bounds how many times one call is retransmitted before
	// the transport declares a major timeout and gives up with a
	// DeadServerError. 0 retries forever — the classic "hard" NFS mount,
	// and the historical default. Chaos scenarios set a cap so a
	// permanently-dead server ends the run with an error instead of
	// wedging it behind a saturated backoff timer.
	MaxRetries int
	// LockPolicy selects the send-path BKL discipline.
	LockPolicy LockPolicy
	// Transport selects UDP datagrams or the TCP-style stream.
	Transport TransportKind
	// MTU is the path MTU used to compute fragment counts for CPU
	// charging (must match the network's).
	MTU int
}

// DefaultConfig returns the 2.4.4-calibrated cost model: ~50 µs of
// network-layer CPU per 8 KB WRITE (6 fragments), 16 slots, 1.1 s
// retransmit.
func DefaultConfig() Config {
	return Config{
		MaxSlots:             16,
		SendCPUBase:          8_000, // 8 µs
		SendCPUPerFragment:   7_000, // 7 µs × 6 frags + 8 = 50 µs per 8 KB WRITE
		RPCPrepCPU:           5_000, // 5 µs
		ReplyCPUBase:         6_000, // 6 µs
		ReplyCPUPerFragment:  1_500, // small replies are one fragment
		ReplyBKLHold:         4_000, // 4 µs
		RetransmitTimeout:    1_100_000_000,
		MaxRetransmitTimeout: defaultMaxRetransmitTimeout,
		LockPolicy:           HoldBKLAcrossSend,
		Transport:            TransportUDP,
		MTU:                  netsim.MTUEthernet,
	}
}

// Stats counts transport activity. For TransportTCP, Retransmits counts
// stream segment retransmissions and BytesSent counts the stream's wire
// bytes, so the column means "repair traffic" under both transports.
type Stats struct {
	Calls       int64
	Replies     int64
	Retransmits int64
	// DuplicateReplies counts replies that arrived for an already
	// completed xid (the reply raced a retransmission) and were
	// suppressed.
	DuplicateReplies int64
	BytesSent        int64
	TotalRTT         sim.Time
	// RTTSamples is how many calls contributed to TotalRTT. Calls that
	// were retransmitted are excluded, Karn-style: their RTT is ambiguous.
	RTTSamples int64
	// SlotWaits counts Calls that found the slot table full and had to
	// sleep; SlotWaitTime is the total time those calls spent queued.
	// Together they measure slot-table convoying as fleets grow.
	SlotWaits    int64
	SlotWaitTime sim.Time
	// BadReplies counts datagrams that failed reply decoding (truncated
	// or stale traffic, e.g. around a server restart) and were dropped.
	BadReplies int64
	// MajorTimeouts counts calls abandoned after MaxRetries
	// retransmissions (each one raised a DeadServerError).
	MajorTimeouts int64
}

// DeadServerError is the major-timeout give-up: a call exhausted its
// retransmit budget against an unresponsive server. It is raised as a
// panic from the retransmit timer (event context — the transport has no
// caller to return to), so it surfaces out of sim.Run for the scenario
// runner or test to recover.
type DeadServerError struct {
	// Server is the unresponsive remote host.
	Server string
	// XID identifies the abandoned call.
	XID uint32
	// Retries is how many retransmissions were attempted.
	Retries int
}

func (e *DeadServerError) Error() string {
	return fmt.Sprintf("rpcsim: server %s not responding: xid %d gave up after %d retransmits",
		e.Server, e.XID, e.Retries)
}

type pendingCall struct {
	xid     uint32
	payload []byte
	enc     *xdr.Encoder // pooled encoder backing payload; nil once released
	onReply func(body *xdr.Decoder)
	timer   sim.Event
	sentAt  sim.Time
	rto     sim.Time
	retrans int
	// sync marks CallSync: its decoder outlives the softirq iteration, so
	// the reply buffer must not be recycled there.
	sync bool
}

// Transport is a client-side RPC transport bound to one server.
type Transport struct {
	s   *sim.Sim
	net *netsim.Network
	cpu *sim.CPUPool
	bkl *sim.Mutex
	cfg Config

	local, remote string

	nextXID  uint32
	pending  map[uint32]*pendingCall
	slotWait *sim.WaitQueue

	rxq     fifo.Queue[[]byte]
	rxWait  *sim.WaitQueue
	softirq *sim.Proc

	// stream is the TCP-style connection (nil under TransportUDP).
	stream *streamsim.Endpoint

	stats Stats
}

// New creates a transport between local and remote hosts. It installs
// itself as the local host's datagram handler and starts a softirq
// process that drains received replies. Under TransportTCP the handler
// feeds a streamsim endpoint whose reassembled records become replies.
func New(s *sim.Sim, net *netsim.Network, cpu *sim.CPUPool, bkl *sim.Mutex, cfg Config, local, remote string) *Transport {
	if cfg.MaxSlots < 1 {
		panic("rpcsim: MaxSlots must be >= 1")
	}
	if cfg.MaxRetransmitTimeout == 0 {
		cfg.MaxRetransmitTimeout = defaultMaxRetransmitTimeout
	}
	t := &Transport{
		s: s, net: net, cpu: cpu, bkl: bkl, cfg: cfg,
		local: local, remote: remote,
		pending:  make(map[uint32]*pendingCall),
		slotWait: s.NewWaitQueue("rpc-slots"),
		rxWait:   s.NewWaitQueue("rpc-rx"),
	}
	if cfg.Transport == TransportTCP {
		t.stream = streamsim.NewEndpoint(s, net, streamsim.DefaultConfig(cfg.MTU), local, remote,
			func(rec []byte) {
				t.rxq.Push(rec)
				t.rxWait.Signal()
			})
		net.SetHandler(local, func(dg netsim.Datagram) { t.stream.HandleDatagram(dg.Payload) })
	} else {
		net.SetHandler(local, func(dg netsim.Datagram) {
			t.rxq.Push(dg.Payload)
			t.rxWait.Signal()
		})
	}
	t.softirq = s.Go("softirq/"+local, t.softirqLoop)
	return t
}

// Stats returns a copy of the transport's counters, folding in the
// stream's repair traffic under TransportTCP.
func (t *Transport) Stats() Stats {
	st := t.stats
	if t.stream != nil {
		ss := t.stream.Stats()
		st.Retransmits += ss.Retransmits
		st.BytesSent += ss.WireBytes
	}
	return st
}

// Stream returns the TCP-style endpoint (nil under TransportUDP).
func (t *Transport) Stream() *streamsim.Endpoint { return t.stream }

// SetMaxRetries adjusts the per-call retransmit cap (0 = retry forever).
// Chaos scenarios set it after test-bed assembly so a dead server
// terminates the run with a DeadServerError instead of hanging.
func (t *Transport) SetMaxRetries(n int) { t.cfg.MaxRetries = n }

// InFlight returns the number of outstanding calls.
func (t *Transport) InFlight() int { return len(t.pending) }

// SlotsAvailable reports whether a Call would start without blocking.
func (t *Transport) SlotsAvailable() bool { return len(t.pending) < t.cfg.MaxSlots }

// Call issues an RPC. It blocks the calling process until a transport
// slot is free and the request is handed to the network, then returns;
// the reply callback runs later in softirq context with the decoder
// positioned after the reply header. The caller must NOT hold the BKL
// (kernel sleeping paths drop it); Call manages the BKL internally
// according to the configured LockPolicy.
func (t *Transport) Call(p *sim.Proc, proc uint32, encodeArgs func(*xdr.Encoder), onReply func(*xdr.Decoder)) {
	t.call(p, proc, encodeArgs, onReply, false)
}

func (t *Transport) call(p *sim.Proc, proc uint32, encodeArgs func(*xdr.Encoder), onReply func(*xdr.Decoder), sync bool) {
	// Reserve a slot; sleeping here does not hold the BKL, which is why a
	// slow server (slots always full) leaves the writer thread unimpeded
	// — the paper's §3.5 paradox.
	if len(t.pending) >= t.cfg.MaxSlots {
		t.stats.SlotWaits++
		queued := t.s.Now()
		for len(t.pending) >= t.cfg.MaxSlots {
			t.slotWait.Wait(p)
		}
		t.stats.SlotWaitTime += t.s.Now() - queued
	}

	t.nextXID++
	xid := t.nextXID
	enc := xdr.AcquireEncoder()
	nfsproto.CallHeader{XID: xid, Proc: proc}.Encode(enc)
	encodeArgs(enc)
	payload := enc.Bytes()

	pc := &pendingCall{xid: xid, payload: payload, enc: enc, onReply: onReply, sentAt: t.s.Now(), sync: sync}
	t.pending[xid] = pc
	t.stats.Calls++

	// xprt_transmit: RPC bookkeeping under the BKL in both policies.
	t.bkl.Lock(p, "xprt_transmit")
	t.cpu.Use(p, "xprt_transmit", t.cfg.RPCPrepCPU)
	t.transmit(p, pc)
	t.bkl.Unlock(p)
}

// msgUnits returns how many wire units an RPC message costs the CPU:
// IP fragments under UDP, stream segments (record mark included) under
// TCP. Both feed the same per-fragment cost model — segmentation work is
// what the paper's per-fragment sock_sendmsg cost measures.
func (t *Transport) msgUnits(msgLen int) int {
	if t.cfg.Transport == TransportTCP {
		return streamsim.SegmentCount(msgLen+4, streamsim.MSSForMTU(t.cfg.MTU))
	}
	return netsim.FragmentCount(msgLen, t.cfg.MTU)
}

// transmit performs the sock_sendmsg portion; caller holds the BKL.
func (t *Transport) transmit(p *sim.Proc, pc *pendingCall) {
	sendCPU := t.cfg.SendCPUBase + sim.Time(t.msgUnits(len(pc.payload)))*t.cfg.SendCPUPerFragment

	switch t.cfg.LockPolicy {
	case HoldBKLAcrossSend:
		// Stock 2.4.4: the network layer runs entirely under the BKL.
		t.bkl.Relabel(p, "sock_sendmsg")
		t.cpu.Use(p, "sock_sendmsg", sendCPU)
		t.bkl.Relabel(p, "xprt_transmit")
	case ReleaseBKLForSend:
		// The fix: "release the lock before calling sock_sendmsg, then
		// reacquire the lock when it returns" (§3.5).
		t.bkl.Unlock(p)
		t.cpu.Use(p, "sock_sendmsg", sendCPU)
		t.bkl.Lock(p, "xprt_transmit")
	}

	if t.cfg.Transport == TransportTCP {
		// The stream owns reliability: per-segment retransmission with an
		// adaptive RTO. No whole-message timer, no duplicate replies.
		// SendRecord copies the record into the stream buffer, so the
		// encode buffer is dead as soon as it returns.
		t.stream.SendRecord(pc.payload)
		pc.payload = nil
		pc.enc.Release()
		pc.enc = nil
		return
	}
	res := t.net.Send(netsim.Datagram{From: t.local, To: t.remote, Payload: pc.payload})
	t.stats.BytesSent += res.WireBytes
	xid := pc.xid
	pc.rto = t.cfg.RetransmitTimeout
	pc.timer = t.s.After(pc.rto, func() { t.retransmit(xid) })
}

// retransmit resends an unanswered call and doubles its timeout,
// Karn-style, up to MaxRetransmitTimeout (event context; models the RPC
// timer firing. The resend's CPU cost is not charged — under loss the
// stall, not the CPU, dominates). With MaxRetries set, a call that has
// exhausted its budget is abandoned: the slot is freed and a
// DeadServerError raised instead of retransmitting forever.
func (t *Transport) retransmit(xid uint32) {
	pc, ok := t.pending[xid]
	if !ok {
		return
	}
	if t.cfg.MaxRetries > 0 && pc.retrans >= t.cfg.MaxRetries {
		delete(t.pending, xid)
		t.stats.MajorTimeouts++
		t.slotWait.Signal()
		panic(&DeadServerError{Server: t.remote, XID: xid, Retries: pc.retrans})
	}
	t.stats.Retransmits++
	pc.retrans++
	res := t.net.Send(netsim.Datagram{From: t.local, To: t.remote, Payload: pc.payload})
	t.stats.BytesSent += res.WireBytes
	pc.rto *= 2
	if pc.rto > t.cfg.MaxRetransmitTimeout {
		pc.rto = t.cfg.MaxRetransmitTimeout
	}
	pc.timer = t.s.After(pc.rto, func() { t.retransmit(xid) })
}

// softirqLoop drains received datagrams: IP reassembly + UDP receive CPU,
// then RPC reply matching under a short BKL hold, then the completion
// callback.
func (t *Transport) softirqLoop(p *sim.Proc) {
	for {
		for t.rxq.Len() == 0 {
			t.rxWait.Wait(p)
		}
		payload := t.rxq.Pop()

		t.cpu.Use(p, "udp_rcv",
			t.cfg.ReplyCPUBase+sim.Time(t.msgUnits(len(payload)))*t.cfg.ReplyCPUPerFragment)

		d := xdr.NewDecoder(payload)
		hdr, err := nfsproto.DecodeReply(d)
		if err != nil {
			// A truncated or stale datagram (possible around a server
			// restart) must not kill the run: count it and drop it.
			t.stats.BadReplies++
			xdr.RecycleBuffer(payload)
			continue
		}
		pc, ok := t.pending[hdr.XID]
		if !ok {
			// Duplicate reply: the original answer raced a retransmission.
			t.stats.DuplicateReplies++
			xdr.RecycleBuffer(payload)
			continue
		}

		// rpc reply state update holds the BKL briefly in both policies.
		t.bkl.Lock(p, "rpc_reply")
		t.cpu.Use(p, "rpc_reply", t.cfg.ReplyBKLHold)
		pc.timer.Cancel()
		delete(t.pending, hdr.XID)
		t.stats.Replies++
		if pc.retrans == 0 {
			// Karn: a retransmitted call's RTT is ambiguous — the reply
			// could answer either transmission — so it contributes no
			// sample.
			t.stats.TotalRTT += t.s.Now() - pc.sentAt
			t.stats.RTTSamples++
		}
		t.bkl.Unlock(p)

		t.slotWait.Signal()
		if pc.onReply != nil {
			pc.onReply(d)
		}
		// The call's encode buffer: with zero retransmissions exactly one
		// request datagram existed and the server is done with it (the
		// reply proves delivery and service), so it can be recycled. A
		// retransmitted call may still have copies in flight — leak those
		// to the GC.
		if pc.enc != nil && pc.retrans == 0 {
			pc.payload = nil
			pc.enc.Release()
			pc.enc = nil
		}
		// The reply buffer is uniquely ours (UDP: the server's encode
		// buffer, delivered once; TCP: a record the stream handed over)
		// and decoded aliases die with the callback — except under
		// CallSync, whose caller reads the decoder after we loop on.
		if !pc.sync {
			xdr.RecycleBuffer(payload)
		}
	}
}

// CallSync issues an RPC and blocks the calling process until the reply
// arrives, returning the positioned decoder. Used for COMMIT and for
// synchronous flush waits.
func (t *Transport) CallSync(p *sim.Proc, proc uint32, encodeArgs func(*xdr.Encoder)) *xdr.Decoder {
	var reply *xdr.Decoder
	done := t.s.NewWaitQueue("rpc-sync")
	t.call(p, proc, encodeArgs, func(d *xdr.Decoder) {
		reply = d
		done.Broadcast()
	}, true)
	for reply == nil {
		done.Wait(p)
	}
	return reply
}
