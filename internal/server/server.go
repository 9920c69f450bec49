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
	"bytes"
	"fmt"
	"sort"

	"repro/internal/fifo"
	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/rangeset"
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
// front-end. Handlers run on an nfsd worker process and may block in
// virtual time. Arguments and results pass by value, so serving a
// request allocates nothing.
type Backend interface {
	// HandleRead services a READ3 request. The returned Data must be
	// Count bytes long — its length is what puts read wire time on the
	// reply path.
	HandleRead(p *sim.Proc, args nfsproto.ReadArgs) nfsproto.ReadRes
	// HandleWrite services a WRITE3 request. args.Data aliases the
	// request buffer and must not be kept.
	HandleWrite(p *sim.Proc, args nfsproto.WriteArgs) nfsproto.WriteRes
	// HandleCommit services a COMMIT3 request.
	HandleCommit(p *sim.Proc, args nfsproto.CommitArgs) nfsproto.CommitRes
}

// CrashRestarter is implemented by backends with a crash/restart
// lifecycle; Server.Crash/Restart forward to it.
type CrashRestarter interface {
	Crash()
	Restart()
}

// DurabilityTracker is implemented by backends that can report which byte
// ranges of each file have reached stable storage. Chaos integrity
// asserts compare it against the front-end's received coverage.
type DurabilityTracker interface {
	StableCoverage(fh nfsproto.FileHandle) *rangeset.Set
	LostBytes() int64
	ReplayedBytes() int64
}

// Config describes the server front-end.
type Config struct {
	// Host is the server's network name.
	Host string
	// Workers is the number of nfsd service threads.
	Workers int
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
	// MTU for fragment-count computation; must match the network's.
	MTU int
	// Transport selects how RPC messages reach this server: UDP datagrams
	// (default) or one streamsim connection per client host.
	Transport rpcsim.TransportKind
}

// Server is the RPC service front-end: NIC handler, request queue, worker
// processes, and per-file coverage tracking for integrity checks.
type Server struct {
	s       *sim.Sim
	net     *netsim.Network
	cpu     *sim.CPUPool
	cfg     Config
	backend Backend

	rxq    fifo.Queue[rxItem]
	rxWait *sim.WaitQueue

	// down marks the server crashed; requests are dropped at the NIC. gen
	// is bumped by Crash so replies computed by the dead instance are
	// suppressed rather than sent by its successor.
	down bool
	gen  int

	// conns holds one stream endpoint per client host (TransportTCP).
	conns map[string]*streamsim.Endpoint

	coverage map[nfsproto.FileHandle]*rangeset.Set

	// ns is the directory state behind the metadata procedures.
	ns *Namespace

	// Statistics.
	Writes        int64
	Commits       int64
	Reads         int64
	Lookups       int64
	Getattrs      int64
	Creates       int64
	Removes       int64
	BytesWritten  int64
	BytesRead     int64
	BusyWorkers   int
	MaxBusy       int
	firstWriteAt  sim.Time
	lastWriteDone sim.Time

	// Crash statistics.
	Crashes          int64
	DroppedWhileDown int64 // requests discarded at the NIC or from rxq
	DroppedReplies   int64 // replies suppressed because their instance died
}

// rxItem is one queued request. owner holds its payload buffer and is
// released once the request is served or discarded.
type rxItem struct {
	from    string
	payload []byte
	owner   netsim.Owner
	frags   int
}

// release ends the server's copy of the request.
func (it rxItem) release() {
	if it.owner != nil {
		it.owner.Release(it.payload)
	}
}

// New creates a server, registers its host on the network with the given
// link configuration, and starts its worker processes.
func New(s *sim.Sim, net *netsim.Network, link netsim.LinkConfig, cfg Config, backend Backend) *Server {
	if cfg.Workers < 1 || cfg.CPUs < 1 {
		panic("server: need at least one worker and one CPU")
	}
	srv := &Server{
		s:        s,
		net:      net,
		cpu:      s.NewCPUPool(cfg.Host+"-cpus", cfg.CPUs),
		cfg:      cfg,
		backend:  backend,
		rxWait:   s.NewWaitQueue(cfg.Host + "-rxq"),
		conns:    make(map[string]*streamsim.Endpoint),
		coverage: make(map[nfsproto.FileHandle]*rangeset.Set),
		ns:       NewNamespace(s),
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
				frags:   netsim.FragmentCount(len(dg.Payload), cfg.MTU),
			})
			srv.rxWait.Signal()
		})
	}
	for i := 0; i < cfg.Workers; i++ {
		s.Go(fmt.Sprintf("nfsd/%s/%d", cfg.Host, i), srv.worker)
	}
	return srv
}

// conn returns (creating on first contact) the stream endpoint for one
// client host. Reassembled records enter the same request queue the UDP
// path uses, with the receive cost expressed in stream segments instead
// of IP fragments.
func (srv *Server) conn(from string) *streamsim.Endpoint {
	ep, ok := srv.conns[from]
	if !ok {
		scfg := streamsim.DefaultConfig(srv.cfg.MTU)
		ep = streamsim.NewEndpoint(srv.s, srv.net, scfg, srv.cfg.Host, from,
			func(rec []byte) {
				srv.rxq.Push(rxItem{
					from:    from,
					payload: rec,
					owner:   xdr.Recycler{}, // the stream handed the record over
					frags:   streamsim.SegmentCount(len(rec)+4, scfg.MSS),
				})
				srv.rxWait.Signal()
			})
		srv.conns[from] = ep
	}
	return ep
}

// Names returns the server's directory state (test accessor).
func (srv *Server) Names() *Namespace { return srv.ns }

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
	if cr, ok := srv.backend.(CrashRestarter); ok {
		cr.Crash()
	}
}

// Restart brings a crashed server back into service.
func (srv *Server) Restart() {
	if !srv.down {
		panic("server: restart while up")
	}
	srv.down = false
	if cr, ok := srv.backend.(CrashRestarter); ok {
		cr.Restart()
	}
}

// CoverageFiles returns the file handles with received write coverage in
// deterministic (byte-wise handle) order.
func (srv *Server) CoverageFiles() []nfsproto.FileHandle {
	fhs := make([]nfsproto.FileHandle, 0, len(srv.coverage))
	for fh := range srv.coverage {
		fhs = append(fhs, fh)
	}
	sort.Slice(fhs, func(i, j int) bool {
		return bytes.Compare(fhs[i][:], fhs[j][:]) < 0
	})
	return fhs
}

// Coverage returns the set of byte ranges received for a file handle.
func (srv *Server) Coverage(fh nfsproto.FileHandle) *rangeset.Set {
	set, ok := srv.coverage[fh]
	if !ok {
		set = &rangeset.Set{}
		srv.coverage[fh] = set
	}
	return set
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

func (srv *Server) worker(p *sim.Proc) {
	var d xdr.Decoder
	for {
		for srv.rxq.Len() == 0 {
			srv.rxWait.Wait(p)
		}
		item := srv.rxq.Pop()

		srv.BusyWorkers++
		if srv.BusyWorkers > srv.MaxBusy {
			srv.MaxBusy = srv.BusyWorkers
		}
		d.Reset(item.payload)
		srv.serve(p, &d, item, srv.gen)
		// Every decoded alias of the request died with serve.
		item.release()
		srv.BusyWorkers--
	}
}

// checkArgs panics if a request's arguments did not decode. Clients only
// send what nfsproto encodes, so a malformed request is a simulator bug.
func (srv *Server) checkArgs(hdr nfsproto.CallHeader, err error) {
	if err != nil {
		panic(fmt.Sprintf("server %s: bad args for proc %d: %v", srv.cfg.Host, hdr.Proc, err))
	}
}

// serve handles one request, read through the worker's decoder d. gen is
// the server generation that dequeued it: if the server crashes while the
// request is in service, the computed reply is discarded instead of being
// sent by the restarted instance.
func (srv *Server) serve(p *sim.Proc, d *xdr.Decoder, item rxItem, gen int) {
	srv.cpu.Use(p, labelNFSDRecv, srv.cfg.RecvCPUBase+sim.Time(item.frags)*srv.cfg.RecvCPUPerFragment)

	hdr, err := nfsproto.DecodeCall(d)
	if err != nil {
		panic(fmt.Sprintf("server %s: bad call: %v", srv.cfg.Host, err))
	}

	reply := xdr.AcquireEncoder()
	nfsproto.ReplyHeader{XID: hdr.XID}.Encode(reply)

	switch hdr.Proc {
	case nfsproto.ProcRead:
		args, err := nfsproto.DecodeReadArgs(d)
		srv.checkArgs(hdr, err)
		srv.cpu.Use(p, labelNFSDRead, srv.cfg.ServiceCPU/2)
		res := srv.backend.HandleRead(p, args)
		if res.Status == nfsproto.NFS3OK {
			srv.Reads++
			srv.BytesRead += int64(res.Count)
		}
		res.Encode(reply)
	case nfsproto.ProcWrite:
		args, err := nfsproto.DecodeWriteArgs(d)
		srv.checkArgs(hdr, err)
		if srv.firstWriteAt == 0 && srv.Writes == 0 {
			srv.firstWriteAt = srv.s.Now()
		}
		srv.cpu.Use(p, labelNFSDWrite, srv.cfg.ServiceCPU)
		res := srv.backend.HandleWrite(p, args)
		if res.Status == nfsproto.NFS3OK {
			srv.Writes++
			srv.BytesWritten += int64(res.Count)
			srv.Coverage(args.File).Add(int64(args.Offset), int64(args.Offset)+int64(res.Count))
			res.Wcc = srv.ns.ApplyWrite(args.File, args.Offset+uint64(res.Count))
			srv.lastWriteDone = srv.s.Now()
		}
		res.Encode(reply)
	case nfsproto.ProcLookup:
		args, err := nfsproto.DecodeLookupArgs(d)
		srv.checkArgs(hdr, err)
		srv.cpu.Use(p, labelNFSDLookup, srv.cfg.ServiceCPU/4)
		srv.Lookups++
		res := nfsproto.LookupRes{Status: nfsproto.NFS3ErrNoEnt}
		if ino, st := srv.ns.Lookup(args.Dir, args.Name); st == nfsproto.NFS3OK {
			res = nfsproto.LookupRes{Status: st, File: ino.fh, Attrs: ino.Attrs()}
		}
		res.Encode(reply)
	case nfsproto.ProcGetattr:
		args, err := nfsproto.DecodeGetattrArgs(d)
		srv.checkArgs(hdr, err)
		srv.cpu.Use(p, labelNFSDGetattr, srv.cfg.ServiceCPU/4)
		srv.Getattrs++
		attrs, st := srv.ns.Getattr(args.File)
		res := nfsproto.GetattrRes{Status: st, Attrs: attrs}
		res.Encode(reply)
	case nfsproto.ProcCreate:
		args, err := nfsproto.DecodeCreateArgs(d)
		srv.checkArgs(hdr, err)
		srv.cpu.Use(p, labelNFSDCreate, srv.cfg.ServiceCPU/4)
		srv.Creates++
		ino, wcc := srv.ns.Create(args.Dir, args.Name)
		res := nfsproto.CreateRes{Status: nfsproto.NFS3OK, File: ino.fh, Attrs: ino.Attrs(), Wcc: wcc}
		res.Encode(reply)
	case nfsproto.ProcRemove:
		args, err := nfsproto.DecodeRemoveArgs(d)
		srv.checkArgs(hdr, err)
		srv.cpu.Use(p, labelNFSDRemove, srv.cfg.ServiceCPU/4)
		srv.Removes++
		st, wcc := srv.ns.Remove(args.Dir, args.Name)
		res := nfsproto.RemoveRes{Status: st, Wcc: wcc}
		res.Encode(reply)
	case nfsproto.ProcCommit:
		args, err := nfsproto.DecodeCommitArgs(d)
		srv.checkArgs(hdr, err)
		srv.cpu.Use(p, labelNFSDCommit, srv.cfg.ServiceCPU/2)
		res := srv.backend.HandleCommit(p, args)
		srv.Commits++
		res.Encode(reply)
	case nfsproto.ProcNull:
		// NULL returns the bare accepted reply.
	default:
		panic(fmt.Sprintf("server %s: unsupported proc %d", srv.cfg.Host, hdr.Proc))
	}

	if srv.down || gen != srv.gen {
		// The instance that accepted this request died before its reply
		// hit the wire; the client will retransmit against the new one.
		srv.DroppedReplies++
		reply.Release()
		return
	}
	srv.cpu.Use(p, labelNFSDSend, srv.cfg.SendCPU)
	if srv.cfg.Transport == rpcsim.TransportTCP {
		// SendRecord copies, so the reply encoder is immediately dead.
		srv.conn(item.from).SendRecord(reply.Bytes())
		reply.Release()
	} else {
		// The reply buffer goes with the datagram: the client's softirq
		// loop recycles it after decoding, the network if it discards it
		// at a downed client. A datagram the network drops on send never
		// leaves, so its buffer is still ours.
		payload := reply.Take()
		if srv.net.Send(netsim.Datagram{From: srv.cfg.Host, To: item.from, Payload: payload, Owner: xdr.Recycler{}}).Dropped {
			xdr.RecycleBuffer(payload)
		}
	}
}
