package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"

	nfssim "repro"
	"repro/internal/harness"
)

// setupReps set-ups run per workload; setup_s is their median.
const setupReps = 3

// maxListed failures are printed per workload.
const maxListed = 5

var errDigest = errors.New("digest mismatch")

// outcome is one workload's run: its op counts, failures and metrics.
type outcome struct {
	ops, attempted, failed int
	failures               []string
	digestsChecked         int // -1: skipped at this seed
	digestMismatches       int
	samples                int64   // CPU profile samples of the traced pass
	calMs                  float64 // median calibration unit of the timed pass
	tailP, tailMs          float64 // the highest op-time percentile n supports
	metrics                map[string]float64
}

// pass runs n ops in a closed loop, each starting when the previous one
// returns: op i is cell i mod len(cells) with seed base+i. Ops below
// len(want) must also match their recorded digest. inject, when set, runs
// in op i's prepare hook. Calibration units follow every op.
func pass(cells []harness.Scenario, seed int64, n int, want []expected, inject func(i int, tb *nfssim.Testbed)) []opRecord {
	recs := make([]opRecord, n)
	for i := range recs {
		sc := cells[i%len(cells)]
		sc.Seed = seed + int64(i)
		var hook func(*nfssim.Testbed)
		if inject != nil {
			hook = func(tb *nfssim.Testbed) { inject(i, tb) }
		}
		rec, res := runOp(sc, hook)
		if rec.err == nil && i < len(want) {
			if got := digest(res); res.Name != want[i].name || got != want[i].digest {
				rec.err = fmt.Errorf("%w: %s %s, recorded %s %s", errDigest, res.Name, got, want[i].name, want[i].digest)
			}
		}
		rec.checked = hostNow()
		rec.calUnits = calUnits(rec.opTime())
		for u := 0; u < rec.calUnits; u++ {
			rec.calTime += calibrate()
		}
		recs[i] = rec
	}
	scaleOps(recs)
	return recs
}

// tally adds a pass's failures to the outcome.
func (o *outcome) tally(recs []opRecord) {
	o.attempted += len(recs)
	for i, r := range recs {
		if r.err == nil {
			continue
		}
		o.failed++
		if errors.Is(r.err, errDigest) {
			o.digestMismatches++
		}
		if len(o.failures) < maxListed {
			o.failures = append(o.failures, fmt.Sprintf("op %d: %v", i, r.err))
		}
	}
}

// measure runs one workload: repeated set-ups (grid expansion plus one
// untimed warm-up op per cell), then the timed ops. With a trace
// directory it first takes the layer call timings, and the timed ops run
// under the CPU profiler; their profile and spans go to the directory.
func measure(wl workload, seed int64, seconds int, traceDir string) (outcome, error) {
	out := outcome{digestsChecked: -1, metrics: map[string]float64{}}
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return out, err
		}
		timings, err := layerTimings()
		if err != nil {
			return out, err
		}
		for k, v := range timings {
			out.metrics[k] = v
		}
	}

	var setups []float64
	var cells []harness.Scenario
	for r := 0; r < setupReps; r++ {
		t0 := hostNow()
		cells = wl.cells()
		warm := pass(cells, seed, len(cells), nil, nil)
		d := hostNow().Sub(t0)
		scale := make([]float64, len(warm))
		for i, w := range warm {
			d -= w.calTime
			scale[i] = w.scale
		}
		setups = append(setups, d.Seconds()*median(scale))
	}

	out.ops = wl.opCount(seconds, len(cells))
	var want []expected
	if seed == digestSeed {
		recorded, err := parseDigests(recordedDigests)
		if err != nil {
			return out, err
		}
		want = recorded[wl.name]
		out.digestsChecked = min(out.ops, len(want))
	}

	var prof bytes.Buffer
	if traceDir != "" {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return out, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	recs := pass(cells, seed, out.ops, want, nil)
	runtime.ReadMemStats(&m1)
	if traceDir != "" {
		pprof.StopCPUProfile()
	}
	rss, err := peakRSSMB()
	if err != nil {
		return out, err
	}
	out.tally(recs)

	opMs, build, run, chk := opTimes(recs)
	p90, err := tail(opMs, 0.9)
	if err != nil {
		return out, err
	}
	var mib, hostS float64
	unit := make([]float64, len(recs))
	for i, r := range recs {
		mib += r.mib
		hostS += r.ms(r.opTime()) / 1e3
		unit[i] = r.calUnit()
	}
	out.calMs = median(unit) / 1e6
	out.tailP, _ = highestTail(len(opMs))
	if out.tailMs, err = tail(opMs, out.tailP); err != nil {
		return out, err
	}
	n := float64(out.ops)
	out.metrics["sim_mib_per_host_s"] = mib / hostS
	out.metrics["op_ms_p50"] = median(opMs)
	out.metrics["op_ms_p90"] = p90
	out.metrics["alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / n
	out.metrics["allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / n
	out.metrics["peak_rss_mb"] = rss
	out.metrics["setup_s"] = median(setups)
	for k, v := range countMetrics(recs) {
		out.metrics[k] = v
	}
	if traceDir == "" {
		return out, nil
	}

	out.metrics["harness.build_ms_p50"] = median(build)
	out.metrics["harness.run_ms_p50"] = median(run)
	out.metrics["bench.check_ms_p50"] = median(chk)
	if err := os.WriteFile(filepath.Join(traceDir, wl.name+".cpu.pprof"), prof.Bytes(), 0o644); err != nil {
		return out, err
	}
	shares, samples, err := profileShares(prof.Bytes())
	if err != nil {
		return out, err
	}
	out.samples = samples
	for b, s := range shares {
		out.metrics[shareMetric(b)] = s
	}
	var spans []span
	for i, r := range recs {
		spans = append(spans, opSpans(i, r)...)
	}
	return out, writeTrace(filepath.Join(traceDir, wl.name+".trace.json"), spans)
}

// peakRSSMB is the process's peak resident set (getrusage ru_maxrss,
// which Linux reports in KiB), in MB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil
}
