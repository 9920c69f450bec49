package server

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/nfsproto"
	"repro/internal/rpcsim"
	"repro/internal/sim"
	"repro/internal/xdr"
)

type rig struct {
	s   *sim.Sim
	net *netsim.Network
	tr  *rpcsim.Transport
	srv *Server
}

// newRig builds client + server of the requested kind. kind is one of
// "filer", "linux", "slow".
func newRig(t *testing.T, kind string) (*rig, any) {
	t.Helper()
	s := sim.New(11)
	net := netsim.New(s)
	net.AddHost(HostClient, netsim.DefaultGigabit(), nil)
	var srv *Server
	var backend any
	var host string
	switch kind {
	case "filer":
		srv, backend = asAny(NewF85(s, net, 0, rpcsim.TransportUDP))
		host = HostFiler
	case "linux":
		srv, backend = asAny(NewLinuxNFS(s, net, 0, rpcsim.TransportUDP))
		host = HostLinux
	case "slow":
		srv, backend = asAny(NewSlow100(s, net, 0, rpcsim.TransportUDP))
		host = HostSlow
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	cpu := s.NewCPUPool("client-cpus", 2)
	bkl := s.NewMutex("bkl")
	tr := rpcsim.New(s, net, cpu, bkl, rpcsim.DefaultConfig(), HostClient, host)
	return &rig{s: s, net: net, tr: tr, srv: srv}, backend
}

func asAny[T any](srv *Server, backend T) (*Server, any) { return srv, backend }

// writeFile writes total bytes in 8 KB stable-UNSTABLE WRITEs, pipelined
// through the transport, then optionally COMMITs. Returns elapsed time.
func writeFile(r *rig, fh nfsproto.FileHandle, total int64, commit bool) sim.Time {
	var elapsed sim.Time
	r.s.Go("writer", func(p *sim.Proc) {
		data := make([]byte, 8192)
		outstanding := 0
		done := r.s.NewWaitQueue("writer-done")
		for off := int64(0); off < total; off += 8192 {
			n := total - off
			if n > 8192 {
				n = 8192
			}
			args := nfsproto.WriteArgs{File: fh, Offset: uint64(off), Count: uint32(n), Stable: nfsproto.Unstable, Data: data[:n]}
			outstanding++
			r.tr.Call(p, nfsproto.ProcWrite, args.Encode, func(d *xdr.Decoder) {
				res, err := nfsproto.DecodeWriteRes(d)
				if err != nil || res.Status != nfsproto.NFS3OK {
					panic("bad write result")
				}
				outstanding--
				done.Broadcast()
			})
		}
		for outstanding > 0 {
			done.Wait(p)
		}
		if commit {
			args := nfsproto.CommitArgs{File: fh, Offset: 0, Count: 0}
			if res, err := rpcsim.CallSync(r.tr, p, nfsproto.ProcCommit, args.Encode, nfsproto.DecodeCommitRes); err != nil || res.Status != nfsproto.NFS3OK {
				panic("bad commit result")
			}
		}
		elapsed = r.s.Now()
	})
	r.s.Run(5 * time.Minute)
	return elapsed
}

func TestFilerWriteRepliesFileSync(t *testing.T) {
	r, _ := newRig(t, "filer")
	fh := nfsproto.MakeFileHandle(1, 1)
	var committed nfsproto.StableHow
	r.s.Go("w", func(p *sim.Proc) {
		args := nfsproto.WriteArgs{File: fh, Offset: 0, Count: 8192, Stable: nfsproto.Unstable, Data: make([]byte, 8192)}
		res, err := rpcsim.CallSync(r.tr, p, nfsproto.ProcWrite, args.Encode, nfsproto.DecodeWriteRes)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		committed = res.Committed
	})
	r.s.Run(time.Second)
	if committed != nfsproto.FileSync {
		t.Fatalf("filer committed = %v, want FILE_SYNC (NVRAM)", committed)
	}
}

func TestLinuxWriteRepliesUnstableAndCommitWorks(t *testing.T) {
	r, backend := newRig(t, "linux")
	l := backend.(*LinuxServer)
	fh := nfsproto.MakeFileHandle(1, 2)
	var committed nfsproto.StableHow
	r.s.Go("w", func(p *sim.Proc) {
		args := nfsproto.WriteArgs{File: fh, Offset: 0, Count: 8192, Stable: nfsproto.Unstable, Data: make([]byte, 8192)}
		res, _ := rpcsim.CallSync(r.tr, p, nfsproto.ProcWrite, args.Encode, nfsproto.DecodeWriteRes)
		committed = res.Committed
		if l.Dirty() != 8192 {
			t.Errorf("dirty = %d after unstable write", l.Dirty())
		}
		if res, err := rpcsim.CallSync(r.tr, p, nfsproto.ProcCommit, (&nfsproto.CommitArgs{File: fh}).Encode, nfsproto.DecodeCommitRes); err != nil || res.Status != nfsproto.NFS3OK {
			t.Errorf("commit failed: %v %v", res, err)
		}
		if l.Dirty() != 0 {
			t.Errorf("dirty = %d after commit", l.Dirty())
		}
	})
	r.s.Run(time.Minute)
	if committed != nfsproto.Unstable {
		t.Fatalf("linux committed = %v, want UNSTABLE", committed)
	}
}

func TestLinuxStableWriteWaitsForDisk(t *testing.T) {
	r, _ := newRig(t, "linux")
	fh := nfsproto.MakeFileHandle(1, 3)
	var fastRTT, syncRTT sim.Time
	r.s.Go("w", func(p *sim.Proc) {
		t0 := r.s.Now()
		args := nfsproto.WriteArgs{File: fh, Offset: 0, Count: 8192, Stable: nfsproto.Unstable, Data: make([]byte, 8192)}
		rpcsim.CallSync(r.tr, p, nfsproto.ProcWrite, args.Encode, nfsproto.DecodeWriteRes)
		fastRTT = r.s.Now() - t0

		t0 = r.s.Now()
		args2 := nfsproto.WriteArgs{File: fh, Offset: 8192, Count: 8192, Stable: nfsproto.FileSync, Data: make([]byte, 8192)}
		res, _ := rpcsim.CallSync(r.tr, p, nfsproto.ProcWrite, args2.Encode, nfsproto.DecodeWriteRes)
		if res.Committed != nfsproto.FileSync {
			t.Errorf("stable write committed = %v", res.Committed)
		}
		syncRTT = r.s.Now() - t0
	})
	r.s.Run(time.Minute)
	if syncRTT <= fastRTT {
		t.Fatalf("stable write RTT %v should exceed unstable %v (disk wait)", syncRTT, fastRTT)
	}
}

func TestServerCoverageTracksBytes(t *testing.T) {
	r, _ := newRig(t, "filer")
	fh := nfsproto.MakeFileHandle(9, 9)
	total := int64(1 << 20)
	writeFile(r, fh, total, false)
	cov := r.srv.Coverage(fh)
	if cov.Total() != total || !cov.Contains(0, total) {
		t.Fatalf("coverage = %v, want [0,%d)", cov, total)
	}
	if r.srv.BytesWritten != total || r.srv.Writes != total/8192 {
		t.Fatalf("bytes=%d writes=%d", r.srv.BytesWritten, r.srv.Writes)
	}
}

func TestFilerFasterIngestThanLinux(t *testing.T) {
	const total = 4 << 20
	fr, _ := newRig(t, "filer")
	ft := writeFile(fr, nfsproto.MakeFileHandle(1, 1), total, false)
	lr, _ := newRig(t, "linux")
	lt := writeFile(lr, nfsproto.MakeFileHandle(1, 1), total, true)
	if ft >= lt {
		t.Fatalf("filer (%v) should ingest 4 MB faster than linux+commit (%v)", ft, lt)
	}
	if fr.srv.NetworkThroughputMBps() <= lr.srv.NetworkThroughputMBps() {
		t.Fatalf("filer throughput %.1f <= linux %.1f",
			fr.srv.NetworkThroughputMBps(), lr.srv.NetworkThroughputMBps())
	}
}

func TestSlowServerWellUnder10MBps(t *testing.T) {
	r, _ := newRig(t, "slow")
	writeFile(r, nfsproto.MakeFileHandle(1, 1), 2<<20, false)
	mbps := r.srv.NetworkThroughputMBps()
	if mbps <= 0 || mbps >= 11 {
		t.Fatalf("100Mb server ingest = %.1f MB/s, want < ~10", mbps)
	}
}

func TestFilerCheckpointPausesService(t *testing.T) {
	// Write more than half the NVRAM: a consistency point must trigger
	// and the filer must stall at least one write during the CP pause.
	r, backend := newRig(t, "filer")
	f := backend.(*Filer)
	writeFile(r, nfsproto.MakeFileHandle(2, 2), 48<<20, false) // > 32 MB half
	if f.Checkpoints == 0 {
		t.Fatal("no consistency point despite exceeding NVRAM half")
	}
}

func TestFilerTimerCheckpoint(t *testing.T) {
	s := sim.New(1)
	cfg := DefaultFilerConfig()
	cfg.CPInterval = 100 * time.Millisecond
	f := NewFiler(s, cfg, newTestVolume(s))
	s.Go("w", func(p *sim.Proc) {
		f.HandleWrite(p, nfsproto.WriteArgs{Count: 8192})
	})
	s.Run(300 * time.Millisecond)
	if f.Checkpoints == 0 {
		t.Fatal("timer checkpoint never fired")
	}
	if f.NVRAMActive() != 0 {
		t.Fatalf("NVRAM active = %d after CP", f.NVRAMActive())
	}
}

func TestFilerCommitImmediate(t *testing.T) {
	s := sim.New(1)
	f := NewFiler(s, DefaultFilerConfig(), newTestVolume(s))
	s.Go("w", func(p *sim.Proc) {
		t0 := s.Now()
		res := f.HandleCommit(p, nfsproto.CommitArgs{})
		if res.Status != nfsproto.NFS3OK {
			t.Errorf("commit status %v", res.Status)
		}
		if s.Now() != t0 {
			t.Error("filer commit should not block")
		}
	})
	s.Run(time.Second)
}

func TestLinuxDirtyThrottling(t *testing.T) {
	s := sim.New(1)
	cfg := LinuxConfig{RAMBytes: 4 << 20, DirtyLimit: 1 << 20, DrainChunk: 64 << 10}
	l := NewLinuxServer(s, cfg, newTestDisk(s))
	s.Go("w", func(p *sim.Proc) {
		for i := 0; i < 512; i++ { // 4 MB total, 4x the dirty limit
			l.HandleWrite(p, nfsproto.WriteArgs{Count: 8192, Stable: nfsproto.Unstable})
		}
	})
	s.Run(time.Minute)
	if l.Throttled == 0 {
		t.Fatal("writer never throttled despite exceeding dirty limit")
	}
	if l.Flushed == 0 {
		t.Fatal("writeback never ran")
	}
}

func TestBadFrontEndConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := sim.New(1)
	net := netsim.New(s)
	New(s, net, netsim.DefaultGigabit(), Config{Host: "x", Workers: 0, CPUs: 1}, nil)
}

// Both backends must serve READ over the front-end: correct status and
// byte count, data sized for wire-time accounting, and server read
// statistics advancing.
func TestReadServedByBothBackends(t *testing.T) {
	for _, kind := range []string{"filer", "linux"} {
		r, _ := newRig(t, kind)
		fh := nfsproto.MakeFileHandle(1, 3)
		var got nfsproto.ReadRes
		var dataLen int
		r.s.Go("r", func(p *sim.Proc) {
			args := nfsproto.ReadArgs{File: fh, Offset: 16384, Count: 8192}
			// The data aliases the reply buffer, which is recycled once
			// the decode returns: measure it inside.
			res, err := rpcsim.CallSync(r.tr, p, nfsproto.ProcRead, args.Encode, func(d *xdr.Decoder) (nfsproto.ReadRes, error) {
				res, err := nfsproto.DecodeReadRes(d)
				if err == nil {
					dataLen, res.Data = len(res.Data), nil
				}
				return res, err
			})
			if err != nil {
				t.Errorf("%s: decode: %v", kind, err)
				return
			}
			got = res
		})
		r.s.Run(time.Minute)
		if got.Status != nfsproto.NFS3OK || got.Count != 8192 {
			t.Fatalf("%s: READ reply %+v", kind, got)
		}
		if dataLen != 8192 {
			t.Fatalf("%s: reply carries %d data bytes, want 8192", kind, dataLen)
		}
		if r.srv.Reads != 1 || r.srv.BytesRead != 8192 {
			t.Fatalf("%s: server stats reads=%d bytes=%d", kind, r.srv.Reads, r.srv.BytesRead)
		}
	}
}

// Sequential READs must stream from the backend disk: the second of two
// adjacent reads pays no positioning cost, so doubling the bytes must
// not double the elapsed time by more than the media transfer.
func TestSequentialReadsAvoidSeeks(t *testing.T) {
	r, backend := newRig(t, "linux")
	l := backend.(*LinuxServer)
	r.s.Go("r", func(p *sim.Proc) {
		for off := int64(0); off < 10*8192; off += 8192 {
			args := nfsproto.ReadArgs{File: nfsproto.MakeFileHandle(1, 4), Offset: uint64(off), Count: 8192}
			if res, err := rpcsim.CallSync(r.tr, p, nfsproto.ProcRead, args.Encode, nfsproto.DecodeReadRes); err != nil || res.Status != nfsproto.NFS3OK {
				t.Errorf("read failed: %v %v", res, err)
			}
		}
	})
	r.s.Run(time.Minute)
	if l.disk.Seeks != 1 {
		t.Fatalf("10 sequential READs cost %d seeks, want 1 (initial position)", l.disk.Seeks)
	}
	if l.disk.BytesRead != 10*8192 {
		t.Fatalf("disk read %d bytes", l.disk.BytesRead)
	}
}

func TestBadBackendConfigPanics(t *testing.T) {
	s := sim.New(1)
	for _, fn := range []func(){
		func() { NewFiler(s, FilerConfig{NVRAMBytes: 0}, newTestVolume(s)) },
		func() { NewLinuxServer(s, LinuxConfig{DirtyLimit: 0, DrainChunk: 1}, newTestDisk(s)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
