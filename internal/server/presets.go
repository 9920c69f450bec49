package server

import (
	"fmt"

	"repro/internal/disksim"
	"repro/internal/netsim"
	"repro/internal/rpcsim"
	"repro/internal/sim"
)

// Canonical host names for the paper's servers. Client machines are
// numbered client0, client1, ... (ClientHost).
const (
	HostFiler = "filer"
	HostLinux = "linuxsrv"
	HostSlow  = "slowsrv"
)

// ClientHost returns the canonical host name of the i'th client machine.
func ClientHost(i int) string { return fmt.Sprintf("client%d", i) }

// NewF85 builds the prototype Network Appliance F85: single 833 MHz CPU,
// fiber gigabit NIC on fast PCI, 64 MB NVRAM, RAID-4 volume of eight data
// disks. Its WRITE service path is CPU-bound at ~42 MB/s of 8 KB requests
// (the paper measures the filer sustaining "about 38 MBps of network
// throughput", §3.5) and every write is stable on arrival because it
// lands in NVRAM — "the filer's NVRAM acts as an extension of the
// client's page cache" (§3.6) in the sense that nothing waits for disk
// until a consistency point.
func NewF85(s *sim.Sim, net *netsim.Network, mtu int, transport rpcsim.TransportKind) *Server {
	link := netsim.LinkConfig{
		Bandwidth:   netsim.BandwidthGigabit,
		Propagation: 20_000, // 20 µs through the switch
		MTU:         mtu,
	}
	cfg := Config{
		Host:               HostFiler,
		CPUs:               1,
		RecvCPUBase:        5_000,
		RecvCPUPerFragment: 2_000,
		ServiceCPU:         170_000, // ONTAP WRITE path + NVRAM log copy
		SendCPU:            5_000,
		Transport:          transport,
	}
	return New(s, net, link, cfg, NewFiler(s, disksim.NewFilerVolume(s)))
}

// NewLinuxNFS builds the four-way Linux 2.4.4 knfsd: plenty of CPU, but
// its Netgear NIC sits in a 32-bit/33 MHz PCI slot (§3.1), capping the
// network path well below gigabit — the reason the paper measures only
// ~26 MB/s of network throughput against it.
func NewLinuxNFS(s *sim.Sim, net *netsim.Network, mtu int, transport rpcsim.TransportKind) *Server {
	link := netsim.LinkConfig{
		Bandwidth:   30_000_000, // PCI-constrained effective NIC rate
		Propagation: 20_000,
		MTU:         mtu,
	}
	cfg := Config{
		Host:               HostLinux,
		CPUs:               4,
		RecvCPUBase:        6_000,
		RecvCPUPerFragment: 2_500,
		ServiceCPU:         60_000, // knfsd WRITE path per request
		SendCPU:            6_000,
		Transport:          transport,
	}
	return New(s, net, link, cfg, NewLinuxServer(s, disksim.NewSeagateSCSI(s)))
}

// NewSlow100 builds the §3.5 verification server: the same knfsd stack
// behind a 100 Mb/s link ("The benchmark writes to memory even faster
// with this server, which sustains less than 10 MBps").
func NewSlow100(s *sim.Sim, net *netsim.Network, mtu int, transport rpcsim.TransportKind) *Server {
	link := netsim.LinkConfig{
		// 100base-T nominal is 12.5 MB/s; NFS/UDP with fragmentation and
		// half-duplex-era switch overheads sustains ~10 MB/s of wire rate,
		// keeping payload ingest "less than 10 MBps" as the paper measured.
		Bandwidth:   10_500_000,
		Propagation: 30_000,
		MTU:         mtu,
	}
	cfg := Config{
		Host:               HostSlow,
		CPUs:               1,
		RecvCPUBase:        6_000,
		RecvCPUPerFragment: 2_500,
		ServiceCPU:         60_000,
		SendCPU:            6_000,
		Transport:          transport,
	}
	return New(s, net, link, cfg, NewLinuxServer(s, disksim.NewSeagateSCSI(s)))
}
