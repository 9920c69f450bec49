// Command smpcontention demonstrates the paper's §3.5 result: on an SMP
// client the writer thread and nfs_flushd contend for the big kernel
// lock, which the RPC layer holds across sock_sendmsg (~50 µs per WRITE).
// Paradoxically, a faster server makes the client slower — the flusher is
// awake more, holding the lock more. Releasing the BKL around the socket
// call fixes it.
//
// The example prints Table 1 plus the BKL contention counters that
// explain it, and adds the 100 Mb/s server run that verified the paradox.
package main

import (
	"fmt"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/rpcsim"
)

type row struct {
	label   string
	server  nfssim.ServerKind
	policy  rpcsim.LockPolicy
	mbps    float64
	mean    time.Duration
	waits   int
	waitSum time.Duration
}

func main() {
	rows := []*row{
		{label: "filer,   BKL held", server: nfssim.ServerFiler, policy: rpcsim.HoldBKLAcrossSend},
		{label: "filer,   no lock ", server: nfssim.ServerFiler, policy: rpcsim.ReleaseBKLForSend},
		{label: "linux,   BKL held", server: nfssim.ServerLinux, policy: rpcsim.HoldBKLAcrossSend},
		{label: "linux,   no lock ", server: nfssim.ServerLinux, policy: rpcsim.ReleaseBKLForSend},
		{label: "100Mbit, BKL held", server: nfssim.ServerSlow100, policy: rpcsim.HoldBKLAcrossSend},
	}
	for _, r := range rows {
		cfg := core.HashConfig()
		cfg.LockPolicy = r.policy
		tb := nfssim.NewTestbed(nfssim.Options{Server: r.server, Client: cfg})
		res := bonnie.RunWorkload(tb.Sim, r.label, tb.OpenSet(), bonnie.Config{
			FileSize:       5 << 20,
			TimeLimit:      time.Minute,
			SkipFlushClose: true,
		})
		r.mbps = res.WriteMBps()
		r.mean = res.Trace.Summary().Mean
		r.waits = tb.Machine(0).BKL.Contentions
		r.waitSum = tb.Machine(0).BKL.TotalWait
	}

	fmt.Println("5 MB memory-write benchmark (hash-table client), dual-CPU client")
	fmt.Printf("%-20s %10s %12s %12s %14s\n", "configuration", "MB/s", "mean lat", "BKL waits", "BKL wait time")
	for _, r := range rows {
		fmt.Printf("%-20s %10.1f %12v %12d %14v\n", r.label, r.mbps, r.mean, r.waits, r.waitSum)
	}
	fmt.Println()
	fmt.Println("Observations (paper §3.5):")
	fmt.Printf("  - with the BKL held, the FASTER filer gives SLOWER memory writes than linux\n")
	fmt.Printf("  - the slowest server (100Mbit) gives the fastest memory writes of the locked runs\n")
	fmt.Printf("  - releasing the lock around sock_sendmsg recovers the loss on both servers\n")
}
