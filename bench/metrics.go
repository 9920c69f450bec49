package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Failures are reported as the failed and attempted op
// counts beside them.
var endToEnd = []metricDef{
	{"sim_mib_per_host_s", "MiB/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// shareBuckets are the CPU-profile buckets: one per package on the data
// path, sim split by what its functions do, runtime samples with no
// simulator frame, and "other" for the remaining repro packages.
var shareBuckets = []string{
	"sim.profiler", "sim.handoff", "sim.queue", "sim.other",
	"runtime.sched", "runtime.gc",
	"xdr", "nfsproto", "netsim", "streamsim", "rpcsim", "core", "mm",
	"server", "disksim", "bonnie", "harness", "stats", "nfssim", "bench", "other",
}

// perLayer lists every per-layer metric of a traced run.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, b := range shareBuckets {
		out = append(out, metricDef{shareMetric(b), "ratio", "lower"})
	}
	for _, c := range layerCalls {
		out = append(out, metricDef{c.name + "_ns", "ns", "lower"}, metricDef{c.name + "_allocs", "count", "lower"})
	}
	return append(out,
		metricDef{"sim.cpu_use_calls", "count", "lower"},
		metricDef{"sim.bkl_contentions", "count", "lower"},
		metricDef{"netsim.frames", "count", "lower"},
		metricDef{"netsim.frames_dropped", "count", "lower"},
		metricDef{"rpcsim.calls", "count", "lower"},
		metricDef{"rpcsim.retransmits", "count", "lower"},
		metricDef{"rpcsim.dup_replies", "count", "lower"},
		metricDef{"rpcsim.useful_call_ratio", "ratio", "higher"},
		metricDef{"rpcsim.slot_wait_share", "ratio", "lower"},
		metricDef{"rpcsim.host_us_per_call", "us", "lower"},
		metricDef{"core.soft_flushes", "count", "lower"},
		metricDef{"core.hard_blocks", "count", "lower"},
		metricDef{"core.getattr_rpcs", "count", "lower"},
		metricDef{"core.attr_hit_rate", "ratio", "higher"},
		metricDef{"mm.read_hit_rate", "ratio", "higher"},
		metricDef{"server.writes", "count", "lower"},
		metricDef{"server.bytes_written_mb", "MB", "lower"},
		metricDef{"bonnie.syscalls", "count", "lower"},
		metricDef{"harness.build_ms_p50", "ms", "lower"},
		metricDef{"harness.run_ms_p50", "ms", "lower"},
		metricDef{"bench.check_ms_p50", "ms", "lower"},
		metricDef{"trace_overhead_pct", "%", "lower"},
	)
}()

// shareMetric is the per-layer metric name of a profile bucket: a split
// bucket (sim.queue) names its own share, a package its host share.
func shareMetric(bucket string) string {
	if strings.Contains(bucket, ".") {
		return bucket + "_share"
	}
	return bucket + ".host_share"
}

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// tail returns the nearest-rank p-quantile of xs (the smallest value with
// a share p of the samples at or below it), refusing it when fewer than
// minTail samples lie beyond it.
func tail(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", 100*p, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// highestTail is the highest of p90, p99 and p99.9 that n samples support.
func highestTail(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range []float64{0.9, 0.99, 0.999} {
		if n-int(math.Ceil(p*float64(n))) >= minTail {
			best, ok = p, true
		}
	}
	return best, ok
}

// median of unsorted values (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4), the default
// exclusive method, so spreads read the same as the README's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// opTimes returns each record's op, build, run and check times in
// reference-host ms.
func opTimes(recs []opRecord) (op, build, run, chk []float64) {
	for _, r := range recs {
		op = append(op, r.ms(r.opTime()))
		build = append(build, r.ms(r.built.Sub(r.start)))
		run = append(run, r.ms(r.ran.Sub(r.built)))
		chk = append(chk, r.ms(r.checked.Sub(r.ran)))
	}
	return op, build, run, chk
}

// countMetrics turns summed per-op counts into per-op means and ratios.
func countMetrics(recs []opRecord) map[string]float64 {
	var c counts
	var hostS float64
	for _, r := range recs {
		c.add(r.counts)
		hostS += r.ms(r.opTime()) / 1e3
	}
	n := float64(len(recs))
	per := func(x int64) float64 { return float64(x) / n }
	return map[string]float64{
		"sim.cpu_use_calls":        per(c.cpuUseCalls),
		"sim.bkl_contentions":      per(c.bklContentions),
		"netsim.frames":            per(c.frames),
		"netsim.frames_dropped":    per(c.framesDropped),
		"rpcsim.calls":             per(c.rpcCalls),
		"rpcsim.retransmits":       per(c.retransmits),
		"rpcsim.dup_replies":       per(c.dupReplies),
		"rpcsim.useful_call_ratio": ratio(c.rpcCalls, c.rpcCalls+c.retransmits),
		"rpcsim.slot_wait_share":   ratio(c.slotWaits, c.rpcCalls),
		"rpcsim.host_us_per_call":  hostS * 1e6 / float64(max(c.rpcCalls, 1)),
		"core.soft_flushes":        per(c.softFlushes),
		"core.hard_blocks":         per(c.hardBlocks),
		"core.getattr_rpcs":        per(c.getattrRPCs),
		"core.attr_hit_rate":       ratio(c.attrHits, c.attrHits+c.attrMisses),
		"mm.read_hit_rate":         ratio(c.readHits, c.readHits+c.readMisses),
		"server.writes":            per(c.serverWrites),
		"server.bytes_written_mb":  per(c.serverBytes) / 1e6,
		"bonnie.syscalls":          per(c.syscalls),
	}
}
