package nfssim_test

// One benchmark per table and figure in the paper's evaluation, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// iteration regenerates the artifact on a fresh deterministic test bed
// and reports the headline quantity as a custom metric, so
// `go test -bench=.` prints the same rows/series the paper reports.
// TestBenchmarkMetricsMatchGolden pins every one of those metrics.

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/racebuild"
	"repro/internal/rpcsim"
	"repro/internal/stats"
)

// metric is one custom metric a benchmark reports.
type metric struct {
	unit  string
	value float64
}

// quickSizes keeps the sweep benches to a practical iteration time while
// preserving the curve's shape (plateau, knee, tail).
var quickSizes = []int{25, 100, 200, 250, 300, 450}

// sweep runs a Figure 1/7 spec at the quick sizes.
func sweep(e *experiments.Experiment) (linux, filer, local *stats.Series) {
	g := *e.Grid
	g.FileSizesMB = quickSizes
	return experiments.SweepSeries(experiments.RunGrid(g))
}

// yAt returns the y value at x (0 when x is absent).
func yAt(s *stats.Series, x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	return 0
}

// maxY returns the largest y value in the series (0 when empty).
func maxY(s *stats.Series) float64 {
	m := 0.0
	for _, p := range s.Points {
		m = max(m, p.Y)
	}
	return m
}

// traceMetrics reports a Figure 3/4 per-call latency trace.
func traceMetrics(r *experiments.TraceResult) []metric {
	return []metric{
		{"mean-us", float64(r.MeanAll.Microseconds())},
		{"slope-ns/call", r.SlopeNsCall},
		{"write-MB/s", r.Result.WriteMBps},
	}
}

// histMetrics reports a Figure 5/6 pair of latency histograms.
func histMetrics(r *experiments.HistResult) []metric {
	return []metric{
		{"filer-mean-us", float64(r.Filer.Mean.Microseconds())},
		{"linux-mean-us", float64(r.Linux.Mean.Microseconds())},
		{"filer-tail-calls", float64(r.FilerHist.TailCount(experiments.TailCutoff))},
		{"linux-tail-calls", float64(r.LinuxHist.TailCount(experiments.TailCutoff))},
	}
}

// benchRun runs a 10 MB write-phase benchmark and returns MB/s.
func benchRun(srv nfssim.ServerKind, cfg core.Config, cpus int) float64 {
	tb := nfssim.NewTestbed(nfssim.Options{Server: srv, Client: cfg, ClientCPUs: cpus})
	defer tb.Sim.Close()
	res := bonnie.RunWorkload(tb.Sim, "bench", tb.Machines[0].OpenSet(), bonnie.Config{
		FileSize: 10 << 20, TimeLimit: 10 * time.Minute, SkipFlushClose: true,
	})
	return res.WriteMBps()
}

// benchCase is one benchmark body under the name go test -bench prints
// for it (without the -GOMAXPROCS suffix); a sub-benchmark's name
// carries its path after a slash. The benchmark and the golden pin both
// report what run returns, so the two cannot drift apart.
type benchCase struct {
	name string
	run  func() []metric
}

// benchCases holds every root benchmark body, in the order go test
// -bench runs them.
var benchCases = func() []benchCase {
	var cs []benchCase
	add := func(name string, run func() []metric) { cs = append(cs, benchCase{name, run}) }

	add("BenchmarkFig1LocalVsNFSStock", func() []metric {
		linux, filer, local := sweep(experiments.Fig1)
		return []metric{
			{"local-peak-MB/s", maxY(local) / 1000},
			{"filer-MB/s@100MB", yAt(filer, 100) / 1000},
			{"linux-MB/s@100MB", yAt(linux, 100) / 1000},
		}
	})
	add("BenchmarkFig2PeriodicSpikes", func() []metric {
		r := experiments.Fig2()
		return []metric{
			{"mean-us", float64(r.MeanAll.Microseconds())},
			{"mean-excl-spikes-us", float64(r.MeanBelow.Microseconds())},
			{"spike-period-calls", r.SpikePeriod},
			{"spikes", float64(r.Spikes)},
		}
	})
	add("BenchmarkFig3LinearListGrowth", func() []metric { return traceMetrics(experiments.Fig3()) })
	add("BenchmarkFig4HashTableFlat", func() []metric { return traceMetrics(experiments.Fig4()) })
	add("BenchmarkFig5HistogramsBKL", func() []metric { return histMetrics(experiments.Fig5()) })
	add("BenchmarkFig6HistogramsNoLock", func() []metric { return histMetrics(experiments.Fig6()) })
	add("BenchmarkTable1LockVsNoLock", func() []metric {
		rows := experiments.RunGrid(*experiments.Table1.Grid) // hash filer, hash linux, enhanced filer, enhanced linux
		return []metric{
			{"filer-lock-MB/s", rows[0].WriteMBps},
			{"filer-nolock-MB/s", rows[2].WriteMBps},
			{"linux-lock-MB/s", rows[1].WriteMBps},
			{"linux-nolock-MB/s", rows[3].WriteMBps},
		}
	})
	add("BenchmarkFig7LocalVsNFSEnhanced", func() []metric {
		linux, filer, local := sweep(experiments.Fig7)
		return []metric{
			{"filer-MB/s@100MB", yAt(filer, 100) / 1000},
			{"filer-MB/s@450MB", yAt(filer, 450) / 1000},
			{"linux-MB/s@450MB", yAt(linux, 450) / 1000},
			{"local-MB/s@450MB", yAt(local, 450) / 1000},
		}
	})
	add("BenchmarkSlow100Paradox", func() []metric {
		rows := experiments.RunGrid(*experiments.Slow100.Grid) // slow100, filer
		return []metric{{"slow-mem-MB/s", rows[0].WriteMBps}, {"filer-mem-MB/s", rows[1].WriteMBps}}
	})
	add("BenchmarkJumboAblation", func() []metric {
		rows := experiments.RunGrid(*experiments.Jumbo.Grid) // standard, jumbo
		return []metric{{"mtu1500-MB/s", rows[0].FlushMBps}, {"mtu9000-MB/s", rows[1].FlushMBps}}
	})

	// --- Ablation benches (DESIGN.md §4) ---

	// The soft-limit sweep shows the paper's MAX_REQUEST_SOFT (192) is in
	// the stall-dominated regime.
	for _, soft := range []int{64, 192, 1024, 4096} {
		add("BenchmarkAblationSoftLimit/"+strconv.Itoa(soft), func() []metric {
			cfg := core.Stock244Config()
			cfg.MaxRequestSoft = soft
			cfg.MaxRequestHard = soft + 64
			return []metric{{"write-MB/s", benchRun(nfssim.ServerFiler, cfg, 2)}}
		})
	}
	// The two request-index structures at a backlog large enough to
	// expose the O(n) scans.
	for _, idx := range []core.IndexPolicy{core.IndexLinearList, core.IndexHashTable} {
		add("BenchmarkAblationIndex/"+idx.String(), func() []metric {
			cfg := core.NoLimitsConfig()
			cfg.IndexPolicy = idx
			return []metric{{"write-MB/s", benchRun(nfssim.ServerFiler, cfg, 2)}}
		})
	}
	// Fix 3 in isolation, on both servers.
	for _, srv := range []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux} {
		for _, lp := range []rpcsim.LockPolicy{rpcsim.HoldBKLAcrossSend, rpcsim.ReleaseBKLForSend} {
			add("BenchmarkAblationLockPolicy/"+srv.String()+"/"+lp.String(), func() []metric {
				cfg := core.HashConfig()
				cfg.LockPolicy = lp
				return []metric{{"write-MB/s", benchRun(srv, cfg, 2)}}
			})
		}
	}
	// Uniprocessor and SMP clients.
	for _, cpus := range []int{1, 2} {
		add("BenchmarkAblationCPUs/"+strconv.Itoa(cpus)+"cpu", func() []metric {
			return []metric{{"write-MB/s", benchRun(nfssim.ServerFiler, core.EnhancedConfig(), cpus)}}
		})
	}
	// The mount's wsize.
	for _, w := range []int{4096, 8192, 16384, 32768} {
		add("BenchmarkAblationWSize/"+strconv.Itoa(w), func() []metric {
			cfg := core.EnhancedConfig()
			cfg.WSize = w
			return []metric{{"flush-MB/s", benchRun(nfssim.ServerFiler, cfg, 2)}}
		})
	}
	// The RPC slot-table depth.
	for _, slots := range []int{2, 8, 16, 64} {
		add("BenchmarkAblationSlotTable/"+strconv.Itoa(slots), func() []metric {
			rpcCfg := rpcsim.DefaultConfig()
			rpcCfg.MaxSlots = slots
			tb := nfssim.NewTestbed(nfssim.Options{
				Server: nfssim.ServerFiler,
				Client: core.EnhancedConfig(),
				RPC:    &rpcCfg,
			})
			defer tb.Sim.Close()
			res := bonnie.RunWorkload(tb.Sim, "slots", tb.Machines[0].OpenSet(), bonnie.Config{
				FileSize: 10 << 20, TimeLimit: 10 * time.Minute,
			})
			return []metric{{"flush-MB/s", res.FlushMBps()}}
		})
	}

	// The lossy-network table: UDP loss amplification versus TCP segment
	// recovery at 1% fragment loss.
	add("BenchmarkLossSweep", func() []metric {
		rows := experiments.RunGrid(*experiments.Loss.Grid)
		var ms []metric
		for _, tr := range []string{"udp", "tcp"} {
			ms = append(ms, metric{tr + "-MB/s@1%loss", experiments.Loss.Row(rows, "enhanced", tr, "1").AggMBps})
		}
		return ms
	})
	// The two transports on a clean and on a mildly lossy network, full
	// 10 MB runs against the filer.
	for _, tr := range []rpcsim.TransportKind{rpcsim.TransportUDP, rpcsim.TransportTCP} {
		for _, loss := range []float64{0, 0.01} {
			add(fmt.Sprintf("BenchmarkAblationTransport/%s/loss%g", tr, loss), func() []metric {
				tb := nfssim.NewTestbed(nfssim.Options{
					Server:    nfssim.ServerFiler,
					Client:    core.EnhancedConfig(),
					Transport: tr,
					Loss:      loss,
				})
				defer tb.Sim.Close()
				res := bonnie.RunWorkload(tb.Sim, "transport", tb.Machines[0].OpenSet(), bonnie.Config{
					FileSize: 10 << 20, TimeLimit: 10 * time.Minute,
				})
				return []metric{{"close-MB/s", res.CloseMBps()}}
			})
		}
	}
	// The read-path table: sequential read, rewrite and mixed workloads
	// with the readahead ablation.
	add("BenchmarkReadSweep", func() []metric {
		rows := experiments.RunGrid(*experiments.Read.Grid)
		mbps := func(cfg, wl string) float64 { return experiments.Read.Row(rows, cfg, wl).WriteMBps }
		return []metric{
			{"enhanced-read-MB/s", mbps("enhanced", "read")},
			{"ra-off-read-MB/s", mbps("ra-off", "read")},
			{"enhanced-mixed-MB/s", mbps("enhanced", "mixed")},
		}
	})
	// The random-access table: the fix progression under sequential vs
	// random chunk I/O.
	add("BenchmarkRandomSweep", func() []metric {
		rows := experiments.RunGrid(*experiments.Random.Grid)
		mbps := func(cfg, wl string) float64 { return experiments.Random.Row(rows, cfg, wl).WriteMBps }
		return []metric{
			{"hash-randwrite-MB/s", mbps("hash", "randwrite")},
			{"list-randwrite-MB/s", mbps("nolimits", "randwrite")},
			{"stock-randwrite-MB/s", mbps("stock", "randwrite")},
			{"enhanced-randread-MB/s", mbps("enhanced", "randread")},
		}
	})
	// The database-load table: group-commit fsync cost on the filer vs
	// the Linux server.
	add("BenchmarkDBLoad", func() []metric {
		rows := experiments.RunGrid(*experiments.DB.Grid)
		var ms []metric
		for _, srv := range []string{"filer", "linux"} {
			row := *experiments.DB.Row(rows, srv, "enhanced")
			ms = append(ms,
				metric{srv + "-tx/s", experiments.TxPerSec(row)},
				metric{srv + "-fsync-ms", float64(experiments.FsyncTime(row).Milliseconds())})
		}
		return ms
	})
	// The many-file metadata table: the Zipfian op mix with the
	// attribute cache on and off.
	add("BenchmarkZipfSweep", func() []metric {
		rows := experiments.RunGrid(*experiments.Zipf.Grid)
		on, off := experiments.Zipf.Row(rows, "zipf", "on"), experiments.Zipf.Row(rows, "zipf", "off")
		return []metric{
			{"ac-on-MB/s", on.AggMBps},
			{"ac-hit-rate", on.AttrCacheHitRate},
			{"ac-on-getattrs", float64(on.GetattrRPCs)},
			{"noac-MB/s", off.AggMBps},
			{"noac-getattrs", float64(off.GetattrRPCs)},
		}
	})
	add("BenchmarkCoherenceSweep", func() []metric {
		rows := experiments.RunGrid(*experiments.Coherence.Grid)
		strict := experiments.Coherence.Row(rows, "strict")
		ttl := experiments.Coherence.Row(rows, "ttl")
		noac := experiments.Coherence.Row(rows, "noac")
		return []metric{
			{"strict-MB/s", strict.AggMBps},
			{"strict-getattrs", float64(strict.GetattrRPCs)},
			{"ttl-MB/s", ttl.AggMBps},
			{"ttl-stale-reads", float64(ttl.StaleReads)},
			{"noac-MB/s", noac.AggMBps},
			{"noac-stale-reads", float64(noac.StaleReads)},
		}
	})
	// The readahead window cap on a sequential cold-file read against
	// the filer.
	for _, maxPages := range []int{core.ReadaheadOff, core.StockReadaheadMaxPages, core.EnhancedReadaheadMaxPages, 256} {
		name := strconv.Itoa(maxPages)
		if maxPages == core.ReadaheadOff {
			name = "off"
		}
		add("BenchmarkAblationReadahead/"+name, func() []metric {
			cfg := core.EnhancedConfig()
			cfg.ReadaheadMaxPages = maxPages
			tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler, Client: cfg})
			defer tb.Sim.Close()
			res := bonnie.RunWorkload(tb.Sim, "ra", tb.Machines[0].OpenSet(), bonnie.Config{
				FileSize: 10 << 20, Workload: bonnie.WorkloadRead, TimeLimit: 10 * time.Minute,
			})
			return []metric{{"read-MB/s", res.WriteMBps()}}
		})
	}
	// The thousand-client fleet row end to end: one simulation, ~3000
	// live processes, a thousand 1 MB write+flush+close sequences against
	// a single filer. Its wall-clock ns/op is the kernel's whole-run cost
	// (DESIGN.md §12 profiles it); the metrics pin the simulated outcome.
	add("BenchmarkFleet1000", func() []metric {
		g := *experiments.Fleet.Grid
		g.Clients = []int{1000}
		row := experiments.RunGrid(g)[0]
		return []metric{
			{"agg-MB/s", row.AggMBps},
			{"fairness", row.Fairness},
			{"slot-wait-share", experiments.SlotWaitShare(row)},
		}
	})
	return cs
}()

// runBench runs the benchmark case named b.Name(), or each case under
// that name as a sub-benchmark, reporting its metrics every iteration.
func runBench(b *testing.B) {
	found := false
	for _, c := range benchCases {
		sub, ok := strings.CutPrefix(c.name, b.Name())
		if !ok || (sub != "" && sub[0] != '/') {
			continue
		}
		found = true
		body := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, m := range c.run() {
					b.ReportMetric(m.value, m.unit)
				}
			}
		}
		if sub == "" {
			body(b)
		} else {
			b.Run(sub[1:], body)
		}
	}
	if !found {
		b.Fatalf("no benchmark case is named %s", b.Name())
	}
}

func BenchmarkFig1LocalVsNFSStock(b *testing.B)    { runBench(b) }
func BenchmarkFig2PeriodicSpikes(b *testing.B)     { runBench(b) }
func BenchmarkFig3LinearListGrowth(b *testing.B)   { runBench(b) }
func BenchmarkFig4HashTableFlat(b *testing.B)      { runBench(b) }
func BenchmarkFig5HistogramsBKL(b *testing.B)      { runBench(b) }
func BenchmarkFig6HistogramsNoLock(b *testing.B)   { runBench(b) }
func BenchmarkTable1LockVsNoLock(b *testing.B)     { runBench(b) }
func BenchmarkFig7LocalVsNFSEnhanced(b *testing.B) { runBench(b) }
func BenchmarkSlow100Paradox(b *testing.B)         { runBench(b) }
func BenchmarkJumboAblation(b *testing.B)          { runBench(b) }
func BenchmarkAblationSoftLimit(b *testing.B)      { runBench(b) }
func BenchmarkAblationIndex(b *testing.B)          { runBench(b) }
func BenchmarkAblationLockPolicy(b *testing.B)     { runBench(b) }
func BenchmarkAblationCPUs(b *testing.B)           { runBench(b) }
func BenchmarkAblationWSize(b *testing.B)          { runBench(b) }
func BenchmarkAblationSlotTable(b *testing.B)      { runBench(b) }
func BenchmarkLossSweep(b *testing.B)              { runBench(b) }
func BenchmarkAblationTransport(b *testing.B)      { runBench(b) }
func BenchmarkReadSweep(b *testing.B)              { runBench(b) }
func BenchmarkRandomSweep(b *testing.B)            { runBench(b) }
func BenchmarkDBLoad(b *testing.B)                 { runBench(b) }
func BenchmarkZipfSweep(b *testing.B)              { runBench(b) }
func BenchmarkCoherenceSweep(b *testing.B)         { runBench(b) }
func BenchmarkAblationReadahead(b *testing.B)      { runBench(b) }
func BenchmarkFleet1000(b *testing.B)              { runBench(b) }

// TestBenchmarkMetricsMatchGolden pins every metric the benchmarks above
// report, at full precision, to testdata/bench_metrics.golden. A
// mismatch prints the whole file the current code produces.
func TestBenchmarkMetricsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark body once, about 11 s")
	}
	if racebuild.Enabled {
		t.Skip("the race detector slows it many times over; TestQuickAllMatchesGolden drives the same experiments under -race")
	}
	var b strings.Builder
	for _, c := range benchCases {
		for _, m := range c.run() {
			fmt.Fprintf(&b, "%s %s %s\n", c.name, m.unit, strconv.FormatFloat(m.value, 'g', -1, 64))
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "bench_metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("benchmark metrics differ from testdata/bench_metrics.golden; the current code gives:\n%s", got)
	}
}
