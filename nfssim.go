// Package nfssim is the public face of the reproduction of "Linux NFS
// Client Write Performance" (Lever & Honeyman, CITI TR 01-12, FREENIX
// 2002). It assembles complete virtual test beds — one or more SMP Linux
// clients with a configurable NFS write path, a gigabit switch, and the
// paper's servers (a NetApp F85 filer, a four-way Linux knfsd, a
// 100 Mb/s slow server) — on a deterministic discrete-event simulator,
// and exposes the paper's Bonnie-derived benchmark on top: the sequential
// write pass the paper measures, plus rewrite, sequential read (served by
// the client's readahead machinery) and mixed read/write workloads.
//
// Quick start:
//
//	tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler,
//		Client: core.EnhancedConfig()})
//	res := bonnie.RunWorkload(tb.Sim, "bench", tb.Machines[0].OpenSet(), bonnie.Config{FileSize: 40 << 20})
//	fmt.Println(res)
//
// internal/harness wraps exactly this in a Scenario (RunScenario), the
// path every sweep and paper experiment runs through.
//
// The paper's servers exist to serve many clients; Options.Clients
// attaches N independent client machines (each a full ClientMachine:
// CPU pool, BKL, page cache, RPC transport, NFS client) to the same
// server over distinct network hosts, for the scale-out scenarios the
// single-machine paper setup cannot express.
package nfssim

import (
	"repro/internal/core"
	"repro/internal/disksim"
	"repro/internal/ext2"
	"repro/internal/mm"
	"repro/internal/netsim"
	"repro/internal/rpcsim"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// ServerKind selects which server the test bed mounts.
type ServerKind int

const (
	// ServerFiler is the prototype NetApp F85 (§3.1).
	ServerFiler ServerKind = iota
	// ServerLinux is the four-way Linux 2.4.4 knfsd (§3.1).
	ServerLinux
	// ServerSlow100 is the knfsd stack behind a 100 Mb/s link (§3.5).
	ServerSlow100
	// ServerNone builds a client-only test bed (local ext2 runs).
	ServerNone
)

// serverNames is each server kind's name, as String prints it and
// the harness axis table reads it.
var serverNames = [...]string{ServerFiler: "filer", ServerLinux: "linux", ServerSlow100: "slow100", ServerNone: "local"}

func (k ServerKind) String() string {
	if uint(k) < uint(len(serverNames)) {
		return serverNames[k]
	}
	return serverNames[ServerNone]
}

// Options configures a test bed.
type Options struct {
	// Seed is the deterministic simulation seed (default 1).
	Seed int64
	// Server selects the mounted server.
	Server ServerKind
	// Client is the NFS client configuration; its LockPolicy is applied
	// to each machine's RPC transport. Zero value means
	// core.Stock244Config(). Every client machine runs this
	// configuration, with a per-machine FSID so file handles from
	// different machines never collide at the server.
	Client core.Config
	// Clients is the number of client machines attached to the server
	// (default 1). Machines are independent: each has its own CPU pool,
	// BKL, page cache, and RPC transport, and its own network host
	// (client0, client1, ...).
	Clients int
	// ClientCPUs is the per-machine processor count (default 2, the
	// paper's dual P-III; set 1 for the uniprocessor ablation).
	ClientCPUs int
	// SharedNamespace mounts every client machine on the same export
	// (identical FSID) so that names resolve to the same server-side
	// files — the shared-file coherence workloads' topology. Off by
	// default: each machine gets its own export and handles never
	// collide.
	SharedNamespace bool
	// CacheLimit overrides each machine's page-cache budget (default
	// mm.DefaultDirtyLimit).
	CacheLimit int64
	// Jumbo enables 9000-byte MTU end to end (§3.5 future work).
	Jumbo bool
	// Transport selects the RPC wire protocol: rpcsim.TransportUDP
	// (default, the paper's setup) or rpcsim.TransportTCP (a reliable
	// byte stream with per-segment retransmission and adaptive RTO).
	Transport rpcsim.TransportKind
	// Loss is the network's per-IP-fragment drop probability, in [0, 1).
	// Losing any fragment of a UDP datagram loses the whole datagram —
	// the paper's §1 motivation for examining the transport. 0 disables
	// the loss model entirely (bit-identical to a lossless network).
	Loss float64
	// NetJitter is the maximum extra random delivery delay per datagram
	// (uniform in [0, NetJitter], deterministic per seed). 0 disables it.
	NetJitter sim.Time
	// RPC optionally overrides the transport's slot table; LockPolicy
	// and Transport are always taken from Client and Transport, and the
	// transport sizes its messages for the network's path MTU, which
	// Jumbo sets. The CPU cost model and the retransmit timers are fixed.
	RPC *rpcsim.Config
}

// cpuJitter is the per-execution CPU-cost noise factor on every client
// machine, deterministic per seed, so that latency traces have realistic
// spread.
const cpuJitter = 0.04

// ClientMachine is one complete client host: its processors, big kernel
// lock, page cache, local disk, and — when a server is mounted — its RPC
// transport and NFS client. Machines share nothing but the simulated
// network and the server.
type ClientMachine struct {
	// Index is the machine's position in Testbed.Machines.
	Index int
	// Host is the machine's network host name (client0, client1, ...).
	Host string

	CPU   *sim.CPUPool
	BKL   *sim.Mutex
	Cache *mm.PageCache

	// Client is the machine's NFS client (nil for ServerNone).
	Client *core.Client
	// Transport is the machine's RPC transport (nil for ServerNone).
	Transport *rpcsim.Transport
	// LocalDisk is the machine's EIDE disk for local ext2 runs.
	LocalDisk *disksim.Disk

	sim  *sim.Sim
	kind ServerKind
}

// OpenNFS opens a fresh file on the machine's NFS mount.
func (m *ClientMachine) OpenNFS() *core.File {
	if m.Client == nil {
		panic("nfssim: client machine has no NFS mount")
	}
	return m.Client.Open()
}

// OpenLocal opens a fresh file on the machine's local ext2 filesystem.
func (m *ClientMachine) OpenLocal() vfs.File {
	return ext2.NewFile(m.sim, m.CPU, m.Cache, m.LocalDisk)
}

// Open opens a file on the test bed's configured target: local ext2 for
// ServerNone, NFS otherwise.
func (m *ClientMachine) Open() vfs.File {
	if m.kind == ServerNone {
		return m.OpenLocal()
	}
	return m.OpenNFS()
}

// OpenExisting opens a file already holding size bytes on the machine's
// configured target, with nothing resident in the machine's page cache —
// the cold file the read workloads start from.
func (m *ClientMachine) OpenExisting(size int64) vfs.File {
	if m.kind == ServerNone {
		return ext2.OpenExisting(m.sim, m.CPU, m.Cache, m.LocalDisk, size)
	}
	if m.Client == nil {
		panic("nfssim: client machine has no NFS mount")
	}
	return m.Client.OpenExisting(size)
}

// OpenSet returns the machine's workload openers (fresh and existing
// files on the configured target, plus the NFS namespace for the
// many-file workloads when the machine has a mount), the form
// internal/bonnie's workload runners consume.
func (m *ClientMachine) OpenSet() vfs.OpenSet {
	set := vfs.OpenSet{Fresh: m.Open, Existing: m.OpenExisting}
	if m.Client != nil {
		set.Names = m.Client
	}
	return set
}

// Testbed is an assembled simulation: client machines, network, server.
type Testbed struct {
	Sim *sim.Sim
	Net *netsim.Network

	// Machines are the client machines, in host order (client0, ...).
	// The paper's single-client topology is Machines[0].
	Machines []*ClientMachine

	// Server is the mounted server (nil for ServerNone); Server.Backend()
	// is its filer or knfsd backend.
	Server *server.Server
}

// NewTestbed assembles a test bed.
func NewTestbed(opts Options) *Testbed {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Clients == 0 {
		opts.Clients = 1
	}
	if opts.Clients < 0 {
		panic("nfssim: Clients must be positive")
	}
	if opts.ClientCPUs == 0 {
		opts.ClientCPUs = 2
	}
	if opts.CacheLimit == 0 {
		opts.CacheLimit = mm.DefaultDirtyLimit
	}
	if opts.Client.WSize == 0 {
		opts.Client = core.Stock244Config()
	}

	if opts.Loss < 0 || opts.Loss >= 1 {
		panic("nfssim: Loss must be in [0, 1)")
	}
	if opts.NetJitter < 0 {
		panic("nfssim: NetJitter must be non-negative")
	}

	s := sim.New(opts.Seed)
	net := netsim.New(s)
	if opts.Loss > 0 || opts.NetJitter > 0 {
		net.SetLoss(netsim.LossConfig{Rate: opts.Loss, DelayJitter: opts.NetJitter})
	}
	tb := &Testbed{Sim: s, Net: net}

	mtu := netsim.MTUEthernet
	if opts.Jumbo {
		mtu = netsim.MTUJumbo
	}

	// Client hosts attach to the switch before the server, so the
	// single-client event schedule is identical to the historical
	// one-machine assembly order.
	for i := 0; i < opts.Clients; i++ {
		m := &ClientMachine{
			Index: i,
			Host:  server.ClientHost(i),
			CPU:   s.NewCPUPool(opts.ClientCPUs),
			BKL:   s.NewMutex("kernel_flag/" + server.ClientHost(i)),
			Cache: mm.New(s, opts.CacheLimit),
			sim:   s,
			kind:  opts.Server,
		}
		m.CPU.Jitter = cpuJitter
		net.AddHost(m.Host, netsim.LinkConfig{
			Bandwidth:   netsim.BandwidthGigabit,
			Propagation: 20_000,
			MTU:         mtu,
		}, nil)
		m.LocalDisk = disksim.NewDeskstarEIDE(s)
		tb.Machines = append(tb.Machines, m)
	}

	switch opts.Server {
	case ServerFiler:
		tb.Server = server.NewF85(s, net, mtu, opts.Transport)
	case ServerLinux:
		tb.Server = server.NewLinuxNFS(s, net, mtu, opts.Transport)
	case ServerSlow100:
		tb.Server = server.NewSlow100(s, net, mtu, opts.Transport)
	case ServerNone:
		return tb
	}

	for _, m := range tb.Machines {
		rpcCfg := rpcsim.DefaultConfig()
		if opts.RPC != nil {
			rpcCfg = *opts.RPC
		}
		rpcCfg.LockPolicy = opts.Client.LockPolicy
		rpcCfg.Transport = opts.Transport
		m.Transport = rpcsim.New(s, net, m.CPU, m.BKL, rpcCfg, m.Host, tb.Server.Host())
		ccfg := opts.Client
		if ccfg.FSID == 0 {
			ccfg.FSID = 1
		}
		if !opts.SharedNamespace {
			ccfg.FSID += uint64(m.Index) // distinct per machine; see core.Config.FSID
		}
		m.Client = core.NewClient(s, m.CPU, m.BKL, m.Cache, m.Transport, ccfg)
		// Wire the omniscient staleness probe: the harness judges cache
		// hits against the server's ground-truth change counter. Clients
		// never use it to decide anything.
		m.Client.SetChangeProbe(tb.Server.Names().Change)
	}
	return tb
}
