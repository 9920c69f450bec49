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
	"slices"
	"strings"
	"time"

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

// transportNames is each transport's name, as String prints it and
// ParseTransport reads it.
var transportNames = [...]string{TransportUDP: "udp", TransportTCP: "tcp"}

func (k TransportKind) String() string {
	if uint(k) < uint(len(transportNames)) {
		return transportNames[k]
	}
	return transportNames[TransportUDP]
}

// ParseTransport resolves a transport name as printed by String.
func ParseTransport(name string) (TransportKind, error) {
	if i := slices.Index(transportNames[:], name); i >= 0 {
		return TransportKind(i), nil
	}
	return 0, fmt.Errorf("rpcsim: unknown transport %q (have %s)", name, strings.Join(transportNames[:], ", "))
}

// Profiler and BKL labels for the transport's code paths.
var (
	labelXprtTransmit = sim.NewLabel("xprt_transmit")
	labelSockSendmsg  = sim.NewLabel("sock_sendmsg")
	labelUDPRcv       = sim.NewLabel("udp_rcv")
	labelRPCReply     = sim.NewLabel("rpc_reply")
)

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

// The UDP retransmit timer of classic NFS over UDP: an unanswered call
// is resent after retransmitTimeout (1.1 s), and each retransmission
// doubles the timeout, Karn-style, up to maxRetransmitTimeout (60 s, the
// 2.4 xprt's to_maxval).
const (
	retransmitTimeout    sim.Time = 1100 * time.Millisecond
	maxRetransmitTimeout sim.Time = 60 * time.Second
)

// Config holds the transport's slot table and policy.
type Config struct {
	// MaxSlots bounds concurrently outstanding RPCs (the 2.4 xprt slot
	// table holds 16 entries).
	MaxSlots int
	// LockPolicy selects the send-path BKL discipline.
	LockPolicy LockPolicy
	// Transport selects UDP datagrams or the TCP-style stream.
	Transport TransportKind
}

// DefaultConfig returns the 2.4.4 transport: 16 slots, the BKL held
// across sends, UDP.
func DefaultConfig() Config {
	return Config{
		MaxSlots:   16,
		LockPolicy: HoldBKLAcrossSend,
		Transport:  TransportUDP,
	}
}

// Stats counts transport activity. For TransportTCP, Retransmits counts
// stream segment retransmissions, so it means "repair traffic" under both
// transports.
type Stats struct {
	// ByProc counts the calls issued per NFS procedure number; Calls is
	// their sum. The transport is the one place an RPC is counted.
	ByProc      [nfsproto.ProcCommit + 1]int64
	Calls       int64
	Replies     int64
	Retransmits int64
	// DuplicateReplies counts replies that arrived for an already
	// completed xid (the reply raced a retransmission) and were
	// suppressed.
	DuplicateReplies int64
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
	// MajorTimeouts counts calls abandoned once they used up the
	// SetMaxRetries cap (each one raised a DeadServerError).
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

// pendingCall is one outstanding RPC. It owns the request's wire buffer
// (enc) and counts the references to it in refs:
//
//   - one for the call itself, dropped when an asynchronous call's reply
//     callback returns or the call is abandoned, or when CallSync's
//     caller has decoded the reply;
//   - one per request datagram the network accepted, dropped by whoever
//     ends that copy: the server after serving it, a crashed or downed
//     server discarding it, or the network discarding it at a downed host
//     (Release, netsim.Owner).
//
// Under a retransmit storm a call is often answered while copies of it
// still wait in the server's queue; the buffer must outlive them. When
// refs reaches zero the buffer goes back to the pool and the record to
// the simulation's stock (callRecords).
type pendingCall struct {
	t       *Transport
	xid     uint32
	enc     *xdr.Encoder // pooled encoder holding the request; nil once released
	onReply func(body *xdr.Decoder)
	timer   sim.Event
	resend  func() // the UDP retransmit timer's callback, bound once per record
	sentAt  sim.Time
	rto     sim.Time
	retrans int
	refs    int
	// dec is the reply decoder, positioned after the reply header. It
	// reads reply, which stays valid until the call's reference is
	// dropped.
	dec   xdr.Decoder
	reply []byte
	// sync marks CallSync, whose caller waits on done and decodes the
	// reply itself once replied is set. done is empty between calls, so
	// the record keeps it when it goes back to the stock.
	sync    bool
	replied bool
	done    sim.WaitQueue
}

// Release ends one copy of the request datagram (netsim.Owner).
func (pc *pendingCall) Release([]byte) { pc.t.release(pc) }

// Transport is a client-side RPC transport bound to one server.
type Transport struct {
	s   *sim.Sim
	net *netsim.Network
	cpu *sim.CPUPool
	bkl *sim.Mutex
	cfg Config
	// mtu is the path MTU to the server, which sizes messages in wire
	// units (WireUnits).
	mtu int
	// maxRetries bounds how many times one call is retransmitted before
	// the transport declares a major timeout and gives up with a
	// DeadServerError. 0 retries forever: the classic "hard" NFS mount.
	maxRetries int
	// initRTO and maxRTO are retransmitTimeout and maxRetransmitTimeout;
	// the package's tests shorten them.
	initRTO, maxRTO sim.Time

	local, remote string

	nextXID uint32
	// inflight counts the calls holding a slot, at most MaxSlots; byXID
	// finds each of them.
	inflight int
	byXID    xidIndex
	stock    *callRecords // the simulation's recycled call records
	slotWait *sim.WaitQueue

	rxq    fifo.Queue[[]byte]
	rxWait *sim.WaitQueue

	// irq is the softirq task that drains rxq. Between its steps it keeps
	// the datagram in hand (payload), the reply decoder and the call the
	// reply matched. Its continuations are bound once, in New.
	irq                              *sim.Proc
	payload                          []byte
	dec                              xdr.Decoder
	matched                          *pendingCall
	onRx, onMatch, onHold, onReplied func()

	// stream is the TCP-style connection (nil under TransportUDP).
	stream *streamsim.Endpoint

	stats Stats

	// recycled, when set, sees each request buffer just before it goes
	// back to the pool (tests poison it there).
	recycled func(xid uint32, payload []byte)
}

// New creates a transport between local and remote hosts, both already
// on the network, sized for the path MTU between them. It installs
// itself as the local host's datagram handler and starts a softirq task
// that drains received replies. Under TransportTCP the handler
// feeds a streamsim endpoint whose reassembled records become replies.
func New(s *sim.Sim, net *netsim.Network, cpu *sim.CPUPool, bkl *sim.Mutex, cfg Config, local, remote string) *Transport {
	if cfg.MaxSlots < 1 {
		panic("rpcsim: MaxSlots must be >= 1")
	}
	t := &Transport{
		s: s, net: net, cpu: cpu, bkl: bkl, cfg: cfg,
		mtu:     net.PathMTU(local, remote),
		initRTO: retransmitTimeout, maxRTO: maxRetransmitTimeout,
		local: local, remote: remote,
		stock:    callStock.Of(s),
		slotWait: s.NewWaitQueue(),
		rxWait:   s.NewWaitQueue(),
	}
	if cfg.Transport == TransportTCP {
		t.stream = streamsim.NewEndpoint(s, net, streamsim.DefaultConfig(t.mtu), local, remote,
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
	t.byXID = t.stock.xidIndex(cfg.MaxSlots)
	t.onRx, t.onMatch, t.onHold, t.onReplied = t.rx, t.match, t.hold, t.replied
	t.irq = s.NewTask("softirq/"+local, t.onRx)
	return t
}

// Stats returns a copy of the transport's counters, summing Calls over
// ByProc and folding in the stream's repair traffic under TransportTCP.
func (t *Transport) Stats() Stats {
	st := t.stats
	for _, n := range st.ByProc {
		st.Calls += n
	}
	if t.stream != nil {
		st.Retransmits += t.stream.Stats().Retransmits
	}
	return st
}

// Stream returns the TCP-style endpoint (nil under TransportUDP).
//
//lint:allow unusedexport the nfssim tests check which transports a test bed gives a stream
func (t *Transport) Stream() *streamsim.Endpoint { return t.stream }

// SetMaxRetries sets the per-call retransmit cap (0, the default,
// retries forever). Chaos scenarios set it after test-bed assembly so a
// dead server terminates the run with a DeadServerError instead of
// wedging it behind a saturated backoff timer.
func (t *Transport) SetMaxRetries(n int) { t.maxRetries = n }

// Call issues an RPC. It blocks the calling process until a transport
// slot is free and the request is handed to the network, then returns;
// the reply callback runs later in softirq context with the decoder
// positioned after the reply header; the decoder and every slice decoded
// from it are valid only until the callback returns. The caller must NOT
// hold the BKL (kernel sleeping paths drop it); Call manages the BKL
// internally according to the configured LockPolicy.
func (t *Transport) Call(p *sim.Proc, proc uint32, encodeArgs func(*xdr.Encoder), onReply func(*xdr.Decoder)) {
	t.call(p, proc, encodeArgs, onReply, false)
}

func (t *Transport) call(p *sim.Proc, proc uint32, encodeArgs func(*xdr.Encoder), onReply func(*xdr.Decoder), sync bool) *pendingCall {
	// Reserve a slot; sleeping here does not hold the BKL, which is why a
	// slow server (slots always full) leaves the writer thread unimpeded
	// — the paper's §3.5 paradox.
	if t.inflight >= t.cfg.MaxSlots {
		t.stats.SlotWaits++
		queued := t.s.Now()
		for t.inflight >= t.cfg.MaxSlots {
			t.slotWait.Wait(p)
		}
		t.stats.SlotWaitTime += t.s.Now() - queued
	}

	t.nextXID++
	pc := t.acquire()
	pc.xid = t.nextXID
	pc.enc = xdr.AcquireEncoder()
	nfsproto.CallHeader{XID: pc.xid, Proc: proc}.Encode(pc.enc)
	encodeArgs(pc.enc)
	pc.onReply, pc.sentAt, pc.sync = onReply, t.s.Now(), sync
	t.byXID.insert(pc)
	t.inflight++
	t.stats.ByProc[proc]++

	// xprt_transmit: RPC bookkeeping under the BKL in both policies.
	t.bkl.Lock(p, labelXprtTransmit)
	t.cpu.Use(p, labelXprtTransmit, rpcPrepCPU)
	t.transmit(p, pc)
	t.bkl.Unlock(p)
	return pc
}

// unslot frees pc's slot, if it is still in flight.
func (t *Transport) unslot(pc *pendingCall) {
	if t.byXID.remove(pc) {
		t.inflight--
	}
}

// xidIndex finds the calls in flight by XID in O(1): an open-addressed
// table, probed linearly from the entry the XID's low bits pick. It is at
// least twice as long as the slot table, and XIDs are sequential, so
// probes stay short. Each entry keeps its call's XID beside the call, so
// a probe reads only the table. remove shifts the rest of a probe run
// back into the hole instead of leaving a tombstone, so the table never
// needs rebuilding.
type xidIndex struct {
	tab  []xidEntry
	mask uint32
}

// xidEntry is one table slot; pc is nil in an empty one.
type xidEntry struct {
	xid uint32
	pc  *pendingCall
}

// find returns the call with the given XID, or nil.
func (x *xidIndex) find(xid uint32) *pendingCall {
	tab, mask := x.tab, x.mask
	for i := xid & mask; ; i = (i + 1) & mask {
		if e := tab[i]; e.pc == nil || e.xid == xid {
			return e.pc
		}
	}
}

// insert adds pc, whose XID the table does not hold.
func (x *xidIndex) insert(pc *pendingCall) {
	tab, mask := x.tab, x.mask
	i := pc.xid & mask
	for tab[i].pc != nil {
		i = (i + 1) & mask
	}
	tab[i] = xidEntry{pc.xid, pc}
}

// remove takes pc out and reports whether it was there. Each later
// entry of the probe run moves into the hole if the hole lies on its
// own probe path, that is, no nearer its home slot than the entry is.
func (x *xidIndex) remove(pc *pendingCall) bool {
	tab, mask := x.tab, x.mask
	i := pc.xid & mask
	for tab[i].pc != pc {
		if tab[i].pc == nil {
			return false
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; tab[j].pc != nil; j = (j + 1) & mask {
		if home := tab[j].xid & mask; (j-home)&mask >= (j-i)&mask {
			tab[i] = tab[j]
			i = j
		}
	}
	tab[i] = xidEntry{}
	return true
}

// callRecords is rpcsim's stock of recycled call records (sim.Stock): one per
// simulation, shared by all its transports and handed on to the next
// simulation by Close. A record in it has its resend bound and an empty
// done queue, and is bound to no transport: acquire binds the taker.
type callRecords struct {
	free []*pendingCall
	// tables holds every XID table this stock made; the first lent are
	// held by transports of the open simulation, and Reclaim frees them
	// when it closes.
	tables [][]xidEntry
	lent   int
}

// xidIndex lends an empty XID index for a transport of slots slots. Its
// table is at least twice as long as the slot table, a power of two.
func (cr *callRecords) xidIndex(slots int) xidIndex {
	n := 1
	for n < 2*slots {
		n <<= 1
	}
	i := cr.lent
	for i < len(cr.tables) && len(cr.tables[i]) != n {
		i++
	}
	if i == len(cr.tables) {
		cr.tables = append(cr.tables, make([]xidEntry, n))
	}
	cr.tables[i], cr.tables[cr.lent] = cr.tables[cr.lent], cr.tables[i]
	cr.lent++
	return xidIndex{tab: cr.tables[cr.lent-1], mask: uint32(n - 1)}
}

// Reclaim empties the XID tables the closed simulation's transports
// held, which may still name calls a dead server abandoned, and takes
// them back.
func (cr *callRecords) Reclaim() {
	for _, tab := range cr.tables[:cr.lent] {
		clear(tab)
	}
	cr.lent = 0
}

var callStock = sim.NewStock[callRecords]()

// acquire returns a call record holding the call's own reference.
func (t *Transport) acquire() *pendingCall {
	var pc *pendingCall
	if free := t.stock.free; len(free) > 0 {
		pc = free[len(free)-1]
		t.stock.free = free[:len(free)-1]
		pc.t = t
	} else {
		pc = &pendingCall{t: t}
		pc.resend = pc.retransmit
	}
	pc.refs = 1
	return pc
}

// release drops one reference to a call; the last one recycles its
// request buffer and the record.
func (t *Transport) release(pc *pendingCall) {
	pc.refs--
	if pc.refs > 0 {
		return
	}
	if pc.refs < 0 {
		panic(fmt.Sprintf("rpcsim: xid %d released more often than referenced", pc.xid))
	}
	if pc.enc != nil {
		if t.recycled != nil {
			t.recycled(pc.xid, pc.enc.Bytes())
		}
		pc.enc.Release()
	}
	*pc = pendingCall{resend: pc.resend, done: pc.done}
	t.stock.free = append(t.stock.free, pc)
}

// The transport's CPU model, calibrated to the paper's 2.4.4 client.
const (
	// sendCPUBase + sendCPUPerFragment model the sock_sendmsg cost: UDP
	// send, IP fragmentation and driver work, per datagram and per
	// fragment: 7 µs × 6 fragments + 8 µs is the paper's ~50 µs per
	// 8 KB WRITE.
	sendCPUBase        sim.Time = 8_000 // 8 µs
	sendCPUPerFragment sim.Time = 7_000 // 7 µs
	// rpcPrepCPU is the xprt/xdr work outside the socket call (slot
	// setup, header marshaling). Held under BKL in both policies.
	rpcPrepCPU sim.Time = 5_000 // 5 µs
	// replyCPUBase + replyCPUPerFragment model softirq receive
	// processing (IP reassembly + UDP delivery) per reply; small replies
	// are one fragment.
	replyCPUBase        sim.Time = 6_000 // 6 µs
	replyCPUPerFragment sim.Time = 1_500 // 1.5 µs
	// replyBKLHold is the time the reply path holds the BKL to update RPC
	// state (not removed by the paper's fix).
	replyBKLHold sim.Time = 4_000 // 4 µs
)

// WireUnits returns how many wire units an RPC message of n bytes takes
// at path MTU mtu: IP fragments of one datagram under UDP, stream
// segments of one record under TCP, its 4-byte record mark (RFC 1831
// §10) included. Client and server charge their per-fragment send and
// receive CPU by it — segmentation work is what the paper's
// per-fragment sock_sendmsg cost measures.
func WireUnits(kind TransportKind, n, mtu int) int {
	if kind == TransportTCP {
		return streamsim.SegmentCount(n+4, streamsim.MSSForMTU(mtu))
	}
	return netsim.FragmentCount(n, mtu)
}

// transmit performs the sock_sendmsg portion; caller holds the BKL.
func (t *Transport) transmit(p *sim.Proc, pc *pendingCall) {
	sendCPU := sendCPUBase + sim.Time(WireUnits(t.cfg.Transport, pc.enc.Len(), t.mtu))*sendCPUPerFragment

	switch t.cfg.LockPolicy {
	case HoldBKLAcrossSend:
		// Stock 2.4.4: the network layer runs entirely under the BKL.
		t.bkl.Relabel(p, labelSockSendmsg)
		t.cpu.Use(p, labelSockSendmsg, sendCPU)
		t.bkl.Relabel(p, labelXprtTransmit)
	case ReleaseBKLForSend:
		// The fix: "release the lock before calling sock_sendmsg, then
		// reacquire the lock when it returns" (§3.5).
		t.bkl.Unlock(p)
		t.cpu.Use(p, labelSockSendmsg, sendCPU)
		t.bkl.Lock(p, labelXprtTransmit)
	}

	if t.cfg.Transport == TransportTCP {
		// The stream owns reliability: per-segment retransmission with an
		// adaptive RTO. No whole-message timer, no duplicate replies.
		// SendRecord copies the record into the stream buffer, so the
		// encode buffer is dead as soon as it returns.
		t.stream.SendRecord(pc.enc.Bytes())
		pc.enc.Release()
		pc.enc = nil
		return
	}
	t.send(pc)
	pc.rto = t.initRTO
	pc.timer = t.s.AfterFixed(pc.rto, pc.resend)
}

// send puts one copy of a UDP call on the wire. A copy the network
// accepts holds a reference until its receiver releases it.
func (t *Transport) send(pc *pendingCall) {
	res := t.net.Send(netsim.Datagram{From: t.local, To: t.remote, Payload: pc.enc.Bytes(), Owner: pc})
	if !res.Dropped {
		pc.refs++
	}
}

// retransmit resends an unanswered call and doubles its timeout,
// Karn-style, up to maxRTO (event context; models the RPC
// timer firing. The resend's CPU cost is not charged — under loss the
// stall, not the CPU, dominates). With a retransmit cap set
// (SetMaxRetries), a call that has exhausted its budget is abandoned:
// the slot is freed and a DeadServerError raised instead of
// retransmitting forever. The timer is canceled when the reply lands,
// so it only fires for a pending call.
func (pc *pendingCall) retransmit() {
	t := pc.t
	if t.maxRetries > 0 && pc.retrans >= t.maxRetries {
		t.unslot(pc)
		t.stats.MajorTimeouts++
		t.slotWait.Signal()
		err := &DeadServerError{Server: t.remote, XID: pc.xid, Retries: pc.retrans}
		if !pc.sync {
			// A CallSync caller keeps its reference: it stays parked
			// on the reply, and the run ends with this panic.
			t.release(pc)
		}
		panic(err)
	}
	t.stats.Retransmits++
	pc.retrans++
	t.send(pc)
	pc.rto *= 2
	if pc.rto > t.maxRTO {
		pc.rto = t.maxRTO
	}
	pc.timer = t.s.AfterFixed(pc.rto, pc.resend)
}

// rx is the softirq task's loop head: it waits for a received datagram,
// then charges its IP reassembly and UDP receive CPU. The steps after it
// match the reply under a short BKL hold and run the completion, and each
// ends by coming back here.
func (t *Transport) rx() {
	if t.rxq.Len() == 0 {
		t.rxWait.WaitThen(t.irq, t.onRx)
		return
	}
	t.payload = t.rxq.Pop()
	t.cpu.UseThen(t.irq, labelUDPRcv,
		replyCPUBase+sim.Time(WireUnits(t.cfg.Transport, len(t.payload), t.mtu))*replyCPUPerFragment, t.onMatch)
}

// match decodes the reply header and finds its call, then takes the BKL
// for the reply state update.
func (t *Transport) match() {
	t.dec.Reset(t.payload)
	hdr, err := nfsproto.DecodeReply(&t.dec)
	if err != nil {
		// A truncated or stale datagram (possible around a server
		// restart) must not kill the run: count it and drop it.
		t.stats.BadReplies++
		xdr.RecycleBuffer(t.payload)
		t.rx()
		return
	}
	pc := t.byXID.find(hdr.XID)
	if pc == nil {
		// Duplicate reply: the original answer raced a retransmission.
		t.stats.DuplicateReplies++
		xdr.RecycleBuffer(t.payload)
		t.rx()
		return
	}
	t.matched = pc
	// rpc reply state update holds the BKL briefly in both policies.
	t.bkl.LockThen(t.irq, labelRPCReply, t.onHold)
}

// hold charges the reply state update's CPU under the BKL.
func (t *Transport) hold() {
	t.cpu.UseThen(t.irq, labelRPCReply, replyBKLHold, t.onReplied)
}

// replied retires the matched call, drops the BKL and hands the reply
// over: to a CallSync caller to decode, or to the reply callback.
func (t *Transport) replied() {
	pc := t.matched
	t.matched = nil
	pc.timer.Cancel()
	t.unslot(pc)
	t.stats.Replies++
	if pc.retrans == 0 {
		// Karn: a retransmitted call's RTT is ambiguous — the reply
		// could answer either transmission — so it contributes no
		// sample.
		t.stats.TotalRTT += t.s.Now() - pc.sentAt
		t.stats.RTTSamples++
	}
	t.bkl.Unlock(t.irq)

	t.slotWait.Signal()
	// The reply buffer is uniquely ours (UDP: the server's encode
	// buffer, delivered once; TCP: a record the stream handed over).
	payload := t.payload
	pc.dec, pc.reply = t.dec, payload
	if pc.sync {
		// CallSync's caller decodes it and drops the reference.
		pc.replied = true
		pc.done.Broadcast()
	} else {
		if pc.onReply != nil {
			pc.onReply(&pc.dec)
		}
		xdr.RecycleBuffer(payload)
		t.release(pc)
	}
	t.rx()
}

// CallSync issues an RPC on t, blocks the calling process until the reply
// arrives, and returns the reply body as decode reads it. Used for COMMIT,
// the metadata procedures and synchronous writes. The reply buffer goes
// back to the pool as soon as decode returns, so the result must not
// alias it (DESIGN.md §12).
func CallSync[R any](t *Transport, p *sim.Proc, proc uint32, encodeArgs func(*xdr.Encoder), decode func(*xdr.Decoder) (R, error)) (R, error) {
	pc := t.call(p, proc, encodeArgs, nil, true)
	for !pc.replied {
		pc.done.Wait(p)
	}
	r, err := decode(&pc.dec)
	xdr.RecycleBuffer(pc.reply)
	t.release(pc)
	return r, err
}
