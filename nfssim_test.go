package nfssim

import (
	"testing"
	"time"

	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rpcsim"
	"repro/internal/server"
	"repro/internal/sim"
)

func TestServerKindString(t *testing.T) {
	cases := map[ServerKind]string{
		ServerFiler:   "filer",
		ServerLinux:   "linux",
		ServerSlow100: "slow100",
		ServerNone:    "local",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestNewTestbedDefaults(t *testing.T) {
	tb := NewTestbed(Options{Server: ServerFiler})
	if tb.Machines[0].CPU.CPUs() != 2 {
		t.Fatalf("default CPUs = %d, want 2 (the paper's dual P-III)", tb.Machines[0].CPU.CPUs())
	}
	if tb.Machines[0].Client == nil || tb.Server == nil || tb.Machines[0].Transport == nil {
		t.Fatal("filer test bed incomplete")
	}
	if _, ok := tb.Server.Backend().(*server.Filer); !ok {
		t.Fatalf("filer test bed has a %T backend", tb.Server.Backend())
	}
	if tb.Machines[0].Client.Config().FlushPolicy != core.FlushLimits24 {
		t.Fatal("default client should be the stock 2.4.4 configuration")
	}
	if tb.Machines[0].Cache.Limit() <= 0 || tb.Machines[0].Cache.Limit() >= 256<<20 {
		t.Fatalf("cache limit = %d, want under the 256 MB RAM", tb.Machines[0].Cache.Limit())
	}
}

func TestNewTestbedServerVariants(t *testing.T) {
	lin := NewTestbed(Options{Server: ServerLinux})
	if _, ok := lin.Server.Backend().(*server.LinuxServer); !ok {
		t.Fatalf("linux test bed has a %T backend", lin.Server.Backend())
	}
	slow := NewTestbed(Options{Server: ServerSlow100})
	if _, ok := slow.Server.Backend().(*server.LinuxServer); !ok {
		t.Fatalf("slow test bed has a %T backend", slow.Server.Backend())
	}
	local := NewTestbed(Options{Server: ServerNone})
	if local.Machines[0].Client != nil || local.Server != nil {
		t.Fatal("local test bed should have no NFS parts")
	}
	if local.Machines[0].LocalDisk == nil {
		t.Fatal("local test bed missing the EIDE disk")
	}
}

func TestOpenDispatch(t *testing.T) {
	local := NewTestbed(Options{Server: ServerNone})
	if f := local.Machines[0].Open(); f == nil {
		t.Fatal("local Open returned nil")
	}
	nfs := NewTestbed(Options{Server: ServerFiler})
	if f := nfs.Machines[0].Open(); f == nil {
		t.Fatal("nfs Open returned nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("OpenNFS on a local bed should panic")
		}
	}()
	local.Machines[0].OpenNFS()
}

// OpenExisting must hand back a cold pre-populated file on either
// target, and OpenSet must package both openers for the workload
// runners.
func TestOpenExistingDispatch(t *testing.T) {
	for _, srv := range []ServerKind{ServerNone, ServerFiler} {
		tb := NewTestbed(Options{Server: srv})
		f := tb.Machines[0].OpenExisting(1 << 20)
		if f == nil || f.Size() != 1<<20 {
			t.Fatalf("%v: OpenExisting size = %d", srv, f.Size())
		}
		set := tb.Machines[0].OpenSet()
		if set.Fresh == nil || set.Existing == nil {
			t.Fatalf("%v: OpenSet incomplete", srv)
		}
		if g := set.Existing(4096); g.Size() != 4096 {
			t.Fatalf("%v: OpenSet.Existing size = %d", srv, g.Size())
		}
		if g := set.Fresh(); g.Size() != 0 {
			t.Fatalf("%v: OpenSet.Fresh size = %d", srv, g.Size())
		}
	}
}

func TestJumboOptionReducesFragments(t *testing.T) {
	write := func(jumbo bool) int64 {
		tb := NewTestbed(Options{Server: ServerFiler, Client: core.EnhancedConfig(), Jumbo: jumbo})
		f := tb.Machines[0].OpenNFS()
		tb.Sim.Go("w", func(p *sim.Proc) {
			for i := 0; i < 64; i++ {
				f.Write(p, 8192)
			}
			f.Close(p)
		})
		tb.Sim.Run(time.Minute)
		return tb.Net.HostStats(tb.Machines[0].Host).FramesSent
	}
	std, jmb := write(false), write(true)
	if jmb >= std {
		t.Fatalf("jumbo frames sent %d >= standard %d", jmb, std)
	}
}

func TestCustomSeedAndCPUs(t *testing.T) {
	tb := NewTestbed(Options{Server: ServerLinux, Seed: 99, ClientCPUs: 4})
	if tb.Machines[0].CPU.CPUs() != 4 {
		t.Fatalf("CPUs = %d", tb.Machines[0].CPU.CPUs())
	}
}

func TestJitterOption(t *testing.T) {
	def := NewTestbed(Options{Server: ServerFiler})
	if def.Machines[0].CPU.Jitter != 0.04 {
		t.Fatalf("default jitter = %v", def.Machines[0].CPU.Jitter)
	}
}

func TestMTUConsistency(t *testing.T) {
	tb := NewTestbed(Options{Server: ServerFiler, Jumbo: true})
	// A jumbo 8 KB WRITE should cross the wire as a single fragment:
	// verify via netsim's accounting after one write.
	f := tb.Machines[0].OpenNFS()
	tb.Sim.Go("w", func(p *sim.Proc) {
		f.Write(p, 8192)
		f.Flush(p)
	})
	tb.Sim.Run(time.Minute)
	stats := tb.Net.HostStats(tb.Machines[0].Host)
	if stats.FramesSent > 2 { // one WRITE datagram, maybe split across 2 RPCs
		t.Fatalf("frames sent = %d, want jumbo single-fragment datagrams", stats.FramesSent)
	}
	_ = netsim.MTUJumbo
}

func TestMultiClientTestbed(t *testing.T) {
	tb := NewTestbed(Options{Server: ServerFiler, Clients: 3})
	if len(tb.Machines) != 3 {
		t.Fatalf("machines = %d, want 3", len(tb.Machines))
	}
	hosts := map[string]bool{}
	for i, m := range tb.Machines {
		if m.Index != i {
			t.Fatalf("machine %d has index %d", i, m.Index)
		}
		if m.Host != server.ClientHost(i) {
			t.Fatalf("machine %d host = %q, want %q", i, m.Host, server.ClientHost(i))
		}
		if hosts[m.Host] {
			t.Fatalf("duplicate host %q", m.Host)
		}
		hosts[m.Host] = true
		if m.Client == nil || m.Transport == nil || m.Cache == nil || m.CPU == nil || m.BKL == nil {
			t.Fatalf("machine %d incomplete", i)
		}
	}
	// Machine 0 keeps the canonical host name of the single-client
	// test bed.
	if tb.Machines[0].Host != "client0" {
		t.Fatalf("machine 0 host = %q, want client0", tb.Machines[0].Host)
	}
}

func TestMultiClientDefaultsToOne(t *testing.T) {
	tb := NewTestbed(Options{Server: ServerLinux})
	if len(tb.Machines) != 1 {
		t.Fatalf("machines = %d, want 1", len(tb.Machines))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative Clients should panic")
		}
	}()
	NewTestbed(Options{Server: ServerLinux, Clients: -2})
}

// A TCP test bed must run the benchmark end to end, and a lossy one must
// reject bad probabilities.
func TestTransportAndLossOptions(t *testing.T) {
	tb := NewTestbed(Options{
		Server:    ServerFiler,
		Client:    core.EnhancedConfig(),
		Transport: rpcsim.TransportTCP,
		Loss:      0.02,
		NetJitter: 50 * time.Microsecond,
	})
	if tb.Machines[0].Transport.Stream() == nil {
		t.Fatal("TCP test bed has no stream endpoint")
	}
	if tb.Net.Loss().Rate != 0.02 {
		t.Fatalf("loss = %v, want 0.02", tb.Net.Loss().Rate)
	}
	res := bonnie.RunWorkload(tb.Sim, "tcp-lossy", tb.Machines[0].OpenSet(), bonnie.Config{
		FileSize: 1 << 20, TimeLimit: 10 * time.Minute,
	})
	if res.Calls != 128 {
		t.Fatalf("calls = %d, want 128", res.Calls)
	}
	if tb.Net.Totals().FramesDropped == 0 {
		t.Fatal("lossy run dropped nothing")
	}

	if NewTestbed(Options{Server: ServerFiler}).Machines[0].Transport.Stream() != nil {
		t.Fatal("default test bed should be UDP")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Loss >= 1 should panic")
		}
	}()
	NewTestbed(Options{Server: ServerFiler, Loss: 1.5})
}
