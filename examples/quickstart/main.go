// Command quickstart demonstrates the library end to end: build a test
// bed (dual-CPU client, gigabit switch, NetApp filer), run the paper's
// sequential write benchmark against the stock 2.4.4 client and the fully
// patched client, and print the three throughput figures and latency
// summaries for each.
package main

import (
	"fmt"

	"repro"
	"repro/internal/bonnie"
	"repro/internal/core"
)

func main() {
	const fileSize = 40 << 20 // 40 MB, as in Figure 2

	fmt.Println("== Stock Linux 2.4.4 NFS client against the filer ==")
	stock := nfssim.NewTestbed(nfssim.Options{
		Server: nfssim.ServerFiler,
		Client: core.Stock244Config(),
	})
	res := bonnie.RunWorkload(stock.Sim, "stock-2.4.4/filer", stock.Machines[0].OpenSet(), bonnie.Config{FileSize: fileSize})
	fmt.Print(res)
	spikes := res.Trace.CountAbove(1_000_000) // > 1 ms, the paper's outlier cutoff
	fmt.Printf("  latency spikes >1ms: %d (every ~%.0f calls)\n\n",
		spikes, res.Trace.SpikePeriod(1_000_000))

	fmt.Println("== Patched client (cache-all + hash table + no BKL around send) ==")
	patched := nfssim.NewTestbed(nfssim.Options{
		Server: nfssim.ServerFiler,
		Client: core.EnhancedConfig(),
	})
	res2 := bonnie.RunWorkload(patched.Sim, "patched/filer", patched.Machines[0].OpenSet(), bonnie.Config{FileSize: fileSize})
	fmt.Print(res2)
	fmt.Printf("  latency spikes >1ms: %d\n\n", res2.Trace.CountAbove(1_000_000))

	fmt.Printf("memory write throughput improvement: %.1fx\n",
		res2.WriteMBps()/res.WriteMBps())
}
