// Command latencyspikes walks through the paper's §3.3-§3.4 story on one
// workload: the same 40 MB sequential write against the filer under the
// stock client (periodic 19 ms stalls every ~96 calls), after removing
// the limit-flushing (no spikes, but latency creeps up with the request
// list), and with the hash table (flat). It prints a compact per-call
// latency strip chart for each so the three regimes are visible in a
// terminal.
package main

import (
	"fmt"
	"strings"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
)

func run(name string, cfg core.Config) *bonnie.Result {
	tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler, Client: cfg})
	return bonnie.RunWorkload(tb.Sim, name, tb.OpenSet(), bonnie.Config{
		FileSize:       40 << 20,
		TimeLimit:      10 * time.Minute,
		SkipFlushClose: true,
	})
}

// strip renders latencies bucketed over the run as a character per
// bucket: '.' < 100µs, '-' < 300µs, '+' < 1ms, '#' spikes.
func strip(res *bonnie.Result, buckets int) string {
	n := res.Trace.Len()
	per := n / buckets
	if per == 0 {
		per = 1
	}
	var b strings.Builder
	for i := 0; i+per <= n; i += per {
		var worst time.Duration
		for j := i; j < i+per; j++ {
			if s := res.Trace.At(j); s > worst {
				worst = s
			}
		}
		switch {
		case worst < 100*time.Microsecond:
			b.WriteByte('.')
		case worst < 300*time.Microsecond:
			b.WriteByte('-')
		case worst < time.Millisecond:
			b.WriteByte('+')
		default:
			b.WriteByte('#')
		}
	}
	return b.String()
}

func main() {
	fmt.Println("40 MB sequential write to the NetApp filer, per-call write() latency")
	fmt.Println("each cell = worst latency in a window of calls: . <100µs  - <300µs  + <1ms  # spike")
	fmt.Println()

	stock := run("stock", core.Stock244Config())
	fmt.Println("stock 2.4.4 (192/256 request limits, linear list):")
	fmt.Println("  " + strip(stock, 72))
	fmt.Printf("  mean %v, %d spikes >1ms every ~%.0f calls, %.1f MB/s\n\n",
		stock.Trace.Summary().Mean, stock.Trace.CountAbove(time.Millisecond),
		stock.Trace.SpikePeriod(time.Millisecond), stock.WriteMBps())

	nolimits := run("nolimits", core.NoLimitsConfig())
	fmt.Println("limits removed, still the linear request list:")
	fmt.Println("  " + strip(nolimits, 72))
	fmt.Printf("  mean %v, slope %.1f ns/call (latency grows with the list), %.1f MB/s\n\n",
		nolimits.Trace.Summary().Mean, nolimits.Trace.Slope(), nolimits.WriteMBps())

	hash := run("hash", core.HashConfig())
	fmt.Println("limits removed + hash-table request lookup:")
	fmt.Println("  " + strip(hash, 72))
	fmt.Printf("  mean %v, slope %.1f ns/call, %.1f MB/s\n",
		hash.Trace.Summary().Mean, hash.Trace.Slope(), hash.WriteMBps())
}
