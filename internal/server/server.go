// Package server implements the two NFS servers the paper benchmarks
// against — a prototype Network Appliance F85 filer and a four-way Linux
// 2.4.4 knfsd — plus the shared RPC service front-end they hang off.
//
// The behavioural contrasts the paper leans on are modeled explicitly:
//
//   - The filer logs every write to NVRAM and replies FILE_SYNC, so the
//     client never needs a COMMIT (§3.5); a WAFL-style consistency point
//     periodically makes the filer "briefly stop responding to network
//     write requests" (the Figure 4 quiet gap).
//   - The Linux server accepts UNSTABLE writes into its page cache and
//     makes the client pay for durability at COMMIT time, with a slower
//     network path (its NIC sits on a 32-bit/33 MHz PCI bus, §3.1).
package server

import (
	"fmt"

	"repro/internal/fifo"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/rpcsim"
	"repro/internal/sim"
	"repro/internal/streamsim"
	"repro/internal/xdr"
)

// Profiler labels for the nfsd service paths.
var (
	labelNFSDRecv    = sim.NewLabel("nfsd_recv")
	labelNFSDRead    = sim.NewLabel("nfsd_read")
	labelNFSDWrite   = sim.NewLabel("nfsd_write")
	labelNFSDLookup  = sim.NewLabel("nfsd_lookup")
	labelNFSDGetattr = sim.NewLabel("nfsd_getattr")
	labelNFSDCreate  = sim.NewLabel("nfsd_create")
	labelNFSDRemove  = sim.NewLabel("nfsd_remove")
	labelNFSDCommit  = sim.NewLabel("nfsd_commit")
	labelNFSDSend    = sim.NewLabel("nfsd_send")
)

// Backend is an NFS read/write/commit implementation behind the RPC
// front-end, with the crash lifecycle, durability accounting and disk
// the chaos engine drives. Handlers run on an nfsd worker task (sim.NewTask)
// and never block it themselves: a handler that must wait parks the task
// with the retry continuation it was given, and the retry calls it again,
// so each handler re-checks its condition after every wait. Arguments and
// results pass by value, so serving a request allocates nothing.
type Backend interface {
	// HandleRead services a READ3 request: it books the read on the disk
	// and returns the result and how long the worker waits for the disk.
	// The returned Data must be Count bytes long — its length is what puts
	// read wire time on the reply path.
	HandleRead(args nfsproto.ReadArgs) (nfsproto.ReadRes, sim.Time)
	// HandleWrite services a WRITE3 request to the file whose record is
	// ino, adding the bytes to ino's stable coverage once they are
	// durable. It returns the result and true, or parks task p with retry
	// and returns false. args.Data aliases the request buffer and must not
	// be kept.
	HandleWrite(p *sim.Proc, ino *Inode, args nfsproto.WriteArgs, retry func()) (nfsproto.WriteRes, bool)
	// HandleCommit services a COMMIT3 request like HandleWrite: a result
	// and true, or task p parked with retry and false.
	HandleCommit(p *sim.Proc, args nfsproto.CommitArgs, retry func()) (nfsproto.CommitRes, bool)

	// Crash and Restart apply the backend's own crash semantics;
	// Server.Crash and Server.Restart forward to them.
	Crash()
	Restart()

	// LostBytes counts acked bytes crashes discarded, ReplayedBytes those
	// a restart recovered from a log.
	LostBytes() int64
	ReplayedBytes() int64

	// SetDiskSlowFactor scales the service time of the disk the backend
	// drains to (chaos disk_degrade; 1 restores healthy service).
	SetDiskSlowFactor(f float64)
}

// Config describes the server front-end.
type Config struct {
	// Host is the server's network name.
	Host string
	// CPUs is the number of processors.
	CPUs int
	// RecvCPUBase/PerFragment model interrupt + IP reassembly per request.
	RecvCPUBase        sim.Time
	RecvCPUPerFragment sim.Time
	// ServiceCPU is per-request protocol processing (decode, cache/NVRAM
	// management, reply construction). This is the knob that sets a
	// server's peak ingest rate. READ and COMMIT are charged half of it
	// (no NVRAM log or dirty accounting), the metadata procedures a
	// quarter (a directory or inode-cache probe and a small reply, no
	// data movement).
	ServiceCPU sim.Time
	// SendCPU is the reply transmit cost.
	SendCPU sim.Time
	// Transport selects how RPC messages reach this server: UDP datagrams
	// (default) or one streamsim connection per client host.
	Transport rpcsim.TransportKind
}

// Server is the RPC service front-end: NIC handler, request queue and
// worker tasks, with one record per file in its namespace.
type Server struct {
	s       *sim.Sim
	net     *netsim.Network
	cpu     *sim.CPUPool
	cfg     Config
	backend Backend
	// mtu is the server's link MTU, which sizes received requests in
	// wire units (rpcsim.WireUnits).
	mtu int

	rxq    fifo.Queue[rxItem]
	rxWait *sim.WaitQueue

	// down marks the server crashed; requests are dropped at the NIC. gen
	// is bumped by Crash so replies computed by the dead instance are
	// suppressed rather than sent by its successor.
	down bool
	gen  int

	// conns holds one stream endpoint per client host (TransportTCP).
	conns map[string]*streamsim.Endpoint

	// ns holds the file records: the directory state behind the metadata
	// procedures and the per-file coverage integrity checks read.
	ns *Namespace

	// Statistics.
	Writes        int64
	Commits       int64
	Reads         int64
	BytesWritten  int64
	BytesRead     int64
	firstWriteAt  sim.Time
	lastWriteDone sim.Time

	// Crash statistics.
	Crashes          int64
	DroppedWhileDown int64 // requests discarded at the NIC or from rxq
}

// rxItem is one queued request. owner holds its payload buffer and is
// released once the request is served or discarded.
type rxItem struct {
	from    string
	payload []byte
	owner   netsim.Owner
}

// release ends the server's copy of the request.
func (it rxItem) release() {
	if it.owner != nil {
		it.owner.Release(it.payload)
	}
}

// nfsdWorkers is the number of nfsd service tasks each server runs.
const nfsdWorkers = 8

// New creates a server, registers its host on the network with the given
// link configuration, and starts its nfsdWorkers worker tasks. Requests
// are sized in wire units at the link's MTU.
func New(s *sim.Sim, net *netsim.Network, link netsim.LinkConfig, cfg Config, backend Backend) *Server {
	return newServer(s, net, link, cfg, backend, nfsdWorkers)
}

// newServer is New with the number of worker tasks given; the package's
// tests serve with one.
func newServer(s *sim.Sim, net *netsim.Network, link netsim.LinkConfig, cfg Config, backend Backend, workers int) *Server {
	if cfg.CPUs < 1 {
		panic("server: need at least one CPU")
	}
	srv := &Server{
		s:       s,
		net:     net,
		cpu:     s.NewCPUPool(cfg.CPUs),
		cfg:     cfg,
		backend: backend,
		mtu:     link.MTU,
		rxWait:  s.NewWaitQueue(),
		conns:   make(map[string]*streamsim.Endpoint),
		ns:      NewNamespace(s),
	}
	if cfg.Transport == rpcsim.TransportTCP {
		// Demultiplex by source host: one stream connection per client.
		net.AddHost(cfg.Host, link, func(dg netsim.Datagram) {
			srv.conn(dg.From).HandleDatagram(dg.Payload)
		})
	} else {
		net.AddHost(cfg.Host, link, func(dg netsim.Datagram) {
			if srv.down {
				srv.DroppedWhileDown++
				if dg.Owner != nil {
					dg.Owner.Release(dg.Payload)
				}
				return
			}
			srv.rxq.Push(rxItem{
				from:    dg.From,
				payload: dg.Payload,
				owner:   dg.Owner,
			})
			srv.rxWait.Signal()
		})
	}
	for i := range workers {
		w := &nfsd{srv: srv}
		w.onNext, w.onCall, w.onService = w.next, w.call, w.service
		w.onRead, w.onWrite, w.onCommit, w.onSend = w.readDone, w.writeFile, w.commitFile, w.send
		w.p = s.NewTask(fmt.Sprintf("nfsd/%s/%d", cfg.Host, i), w.onNext)
	}
	return srv
}

// conn returns (creating on first contact) the stream endpoint for one
// client host. Reassembled records enter the same request queue the UDP
// path uses.
func (srv *Server) conn(from string) *streamsim.Endpoint {
	ep, ok := srv.conns[from]
	if !ok {
		ep = streamsim.NewEndpoint(srv.s, srv.net, streamsim.DefaultConfig(srv.mtu), srv.cfg.Host, from,
			func(rec []byte) {
				srv.rxq.Push(rxItem{
					from:    from,
					payload: rec,
					owner:   xdr.Recycler{}, // the stream handed the record over
				})
				srv.rxWait.Signal()
			})
		srv.conns[from] = ep
	}
	return ep
}

// Names returns the server's file records: their change counters are
// the ground truth nfssim's staleness probe and the harness's change-bump
// count read, their coverage what chaos integrity asserts compare.
func (srv *Server) Names() *Namespace { return srv.ns }

// Host returns the server's network name.
func (srv *Server) Host() string { return srv.cfg.Host }

// Backend returns the server's backend.
func (srv *Server) Backend() Backend { return srv.backend }

// Crash takes the server down: queued requests vanish, replies to
// requests already in service are suppressed, and the backend loses (or
// preserves) its state per its own crash semantics. Front-end statistics
// and coverage survive — they are simulator-side accounting of what the
// clients were acked, which is exactly what integrity asserts compare
// against post-crash stable storage.
func (srv *Server) Crash() {
	if srv.down {
		panic("server: crash while already down")
	}
	srv.down = true
	srv.gen++
	srv.Crashes++
	srv.DroppedWhileDown += int64(srv.rxq.Len())
	for srv.rxq.Len() > 0 {
		srv.rxq.Pop().release()
	}
	srv.backend.Crash()
}

// Restart brings a crashed server back into service.
func (srv *Server) Restart() {
	if !srv.down {
		panic("server: restart while up")
	}
	srv.down = false
	srv.backend.Restart()
}

// IngestWindow returns the time between the first write arriving and the
// last write completing, used to compute sustained network throughput.
func (srv *Server) IngestWindow() sim.Time {
	if srv.lastWriteDone <= srv.firstWriteAt {
		return 0
	}
	return srv.lastWriteDone - srv.firstWriteAt
}

// NetworkThroughputMBps returns the sustained server-side write ingest in
// MB/s — the "network throughput" rows of §3.5.
func (srv *Server) NetworkThroughputMBps() float64 {
	w := srv.IngestWindow()
	if w <= 0 {
		return 0
	}
	return float64(srv.BytesWritten) / 1e6 / w.Seconds()
}

// nfsd is one service thread, a task. Between its steps it keeps the
// request in hand: the queue item, the decoder reading it, the server
// generation that dequeued it, the decoded call and arguments, and the
// reply being built. Its continuations are bound once, in New.
type nfsd struct {
	srv   *Server
	p     *sim.Proc
	d     xdr.Decoder
	item  rxItem
	gen   int
	hdr   nfsproto.CallHeader
	reply *xdr.Encoder
	ino   *Inode

	read    nfsproto.ReadArgs
	readRes nfsproto.ReadRes
	write   nfsproto.WriteArgs
	commit  nfsproto.CommitArgs
	lookup  nfsproto.LookupArgs
	getattr nfsproto.GetattrArgs
	create  nfsproto.CreateArgs
	remove  nfsproto.RemoveArgs

	onNext, onCall, onService, onRead, onWrite, onCommit, onSend func()
}

// next is the worker's loop head: it waits for a request, then charges
// its interrupt and reassembly CPU per wire unit: IP fragments under
// UDP, stream segments under TCP. The gen that dequeues a request
// rides with it: if the server crashes while the request is in service,
// the computed reply is discarded instead of being sent by the restarted
// instance.
func (w *nfsd) next() {
	srv := w.srv
	if srv.rxq.Len() == 0 {
		srv.rxWait.WaitThen(w.p, w.onNext)
		return
	}
	w.item = srv.rxq.Pop()
	w.d.Reset(w.item.payload)
	w.gen = srv.gen
	units := rpcsim.WireUnits(srv.cfg.Transport, len(w.item.payload), srv.mtu)
	srv.cpu.UseThen(w.p, labelNFSDRecv, srv.cfg.RecvCPUBase+sim.Time(units)*srv.cfg.RecvCPUPerFragment, w.onCall)
}

// checkArgs panics if a request's arguments did not decode. Clients only
// send what nfsproto encodes, so a malformed request is a simulator bug.
func (srv *Server) checkArgs(hdr nfsproto.CallHeader, err error) {
	if err != nil {
		panic(fmt.Sprintf("server %s: bad args for proc %d: %v", srv.cfg.Host, hdr.Proc, err))
	}
}

// call decodes the request, starts the reply and charges the procedure's
// service CPU.
func (w *nfsd) call() {
	srv, d := w.srv, &w.d
	hdr, err := nfsproto.DecodeCall(d)
	if err != nil {
		panic(fmt.Sprintf("server %s: bad call: %v", srv.cfg.Host, err))
	}
	w.hdr = hdr
	w.reply = xdr.AcquireEncoder()
	nfsproto.ReplyHeader{XID: hdr.XID}.Encode(w.reply)

	var label sim.Label
	var cost sim.Time
	switch hdr.Proc {
	case nfsproto.ProcRead:
		w.read, err = nfsproto.DecodeReadArgs(d)
		label, cost = labelNFSDRead, srv.cfg.ServiceCPU/2
	case nfsproto.ProcWrite:
		w.write, err = nfsproto.DecodeWriteArgs(d)
		label, cost = labelNFSDWrite, srv.cfg.ServiceCPU
	case nfsproto.ProcLookup:
		w.lookup, err = nfsproto.DecodeLookupArgs(d)
		label, cost = labelNFSDLookup, srv.cfg.ServiceCPU/4
	case nfsproto.ProcGetattr:
		w.getattr, err = nfsproto.DecodeGetattrArgs(d)
		label, cost = labelNFSDGetattr, srv.cfg.ServiceCPU/4
	case nfsproto.ProcCreate:
		w.create, err = nfsproto.DecodeCreateArgs(d)
		label, cost = labelNFSDCreate, srv.cfg.ServiceCPU/4
	case nfsproto.ProcRemove:
		w.remove, err = nfsproto.DecodeRemoveArgs(d)
		label, cost = labelNFSDRemove, srv.cfg.ServiceCPU/4
	case nfsproto.ProcCommit:
		w.commit, err = nfsproto.DecodeCommitArgs(d)
		label, cost = labelNFSDCommit, srv.cfg.ServiceCPU/2
	default:
		panic(fmt.Sprintf("server %s: unsupported proc %d", srv.cfg.Host, hdr.Proc))
	}
	srv.checkArgs(hdr, err)
	if hdr.Proc == nfsproto.ProcWrite && srv.firstWriteAt == 0 && srv.Writes == 0 {
		srv.firstWriteAt = srv.s.Now()
	}
	srv.cpu.UseThen(w.p, label, cost, w.onService)
}

// service runs the procedure once its service CPU is charged.
func (w *nfsd) service() {
	srv := w.srv
	switch w.hdr.Proc {
	case nfsproto.ProcRead:
		res, wait := srv.backend.HandleRead(w.read)
		w.readRes = res
		w.p.SleepThen(wait, w.onRead)
		return
	case nfsproto.ProcWrite:
		w.ino = srv.ns.record(w.write.File)
		w.writeFile()
		return
	case nfsproto.ProcCommit:
		w.commitFile()
		return
	case nfsproto.ProcLookup:
		res := nfsproto.LookupRes{Status: nfsproto.NFS3ErrNoEnt}
		if ino, st := srv.ns.Lookup(w.lookup.Dir, w.lookup.Name); st == nfsproto.NFS3OK {
			res = nfsproto.LookupRes{Status: st, File: ino.fh, Attrs: ino.Attrs()}
		}
		res.Encode(w.reply)
	case nfsproto.ProcGetattr:
		attrs, st := srv.ns.Getattr(w.getattr.File)
		res := nfsproto.GetattrRes{Status: st, Attrs: attrs}
		res.Encode(w.reply)
	case nfsproto.ProcCreate:
		ino, wcc := srv.ns.Create(w.create.Dir, w.create.Name)
		res := nfsproto.CreateRes{Status: nfsproto.NFS3OK, File: ino.fh, Attrs: ino.Attrs(), Wcc: wcc}
		res.Encode(w.reply)
	case nfsproto.ProcRemove:
		st, wcc := srv.ns.Remove(w.remove.Dir, w.remove.Name)
		res := nfsproto.RemoveRes{Status: st, Wcc: wcc}
		res.Encode(w.reply)
	}
	w.finish()
}

// readDone encodes a READ result once the disk has delivered it.
func (w *nfsd) readDone() {
	srv, res := w.srv, w.readRes
	if res.Status == nfsproto.NFS3OK {
		srv.Reads++
		srv.BytesRead += int64(res.Count)
	}
	res.Encode(w.reply)
	w.finish()
}

// writeFile hands a WRITE to the backend, and is the retry the backend
// parks the worker with when the write must wait.
func (w *nfsd) writeFile() {
	srv, args, ino := w.srv, w.write, w.ino
	res, ok := srv.backend.HandleWrite(w.p, ino, args, w.onWrite)
	if !ok {
		return
	}
	if res.Status == nfsproto.NFS3OK {
		srv.Writes++
		srv.BytesWritten += int64(res.Count)
		ino.received.Add(int64(args.Offset), int64(args.Offset)+int64(res.Count))
		res.Wcc = srv.ns.ApplyWrite(ino, args.Offset+uint64(res.Count))
		srv.lastWriteDone = srv.s.Now()
	}
	res.Encode(w.reply)
	w.finish()
}

// commitFile hands a COMMIT to the backend, and is its retry.
func (w *nfsd) commitFile() {
	srv := w.srv
	res, ok := srv.backend.HandleCommit(w.p, w.commit, w.onCommit)
	if !ok {
		return
	}
	srv.Commits++
	res.Encode(w.reply)
	w.finish()
}

// finish charges the reply's transmit CPU, unless the instance that
// accepted the request died before its reply hit the wire: then the
// client will retransmit against the new one.
func (w *nfsd) finish() {
	srv := w.srv
	if srv.down || w.gen != srv.gen {
		w.reply.Release()
		w.done()
		return
	}
	srv.cpu.UseThen(w.p, labelNFSDSend, srv.cfg.SendCPU, w.onSend)
}

// send puts the reply on the wire.
func (w *nfsd) send() {
	srv, reply := w.srv, w.reply
	if srv.cfg.Transport == rpcsim.TransportTCP {
		// SendRecord copies, so the reply encoder is immediately dead.
		srv.conn(w.item.from).SendRecord(reply.Bytes())
		reply.Release()
	} else {
		// The reply buffer goes with the datagram: the client's softirq
		// task recycles it after decoding, the network if it discards it
		// at a downed client. A datagram the network drops on send never
		// leaves, so its buffer is still ours.
		payload := reply.Take()
		if srv.net.Send(netsim.Datagram{From: srv.cfg.Host, To: w.item.from, Payload: payload, Owner: xdr.Recycler{}}).Dropped {
			xdr.RecycleBuffer(payload)
		}
	}
	w.done()
}

// done ends the server's copy of the request, and with it every decoded
// alias of the request buffer, and goes back to the loop head.
func (w *nfsd) done() {
	w.item.release()
	w.item, w.reply, w.ino, w.write.Data = rxItem{}, nil, nil, nil
	w.next()
}
