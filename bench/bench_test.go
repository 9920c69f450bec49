package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/netsim"
)

func recorded(t *testing.T) map[string][]expected {
	t.Helper()
	rec, err := parseDigests(recordedDigests)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// The first op of every workload at seed 1 reproduces its recorded
// digest, and the record covers a default-length run.
func TestFirstOpDigests(t *testing.T) {
	rec := recorded(t)
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cells := wl.cells()
			if got, want := len(rec[wl.name]), wl.opCount(refSeconds, len(cells)); got != want {
				t.Errorf("%d recorded digests, a default run has %d ops", got, want)
			}
			if wl.name == "fleet" && testing.Short() {
				t.Skip("a 96-client op takes seconds under -race")
			}
			if err := pass(cells, digestSeed, 1, rec[wl.name], nil)[0].err; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A corrupted expected digest and a planted invariant violation each
// fail exactly one op.
func TestFailuresCountOnce(t *testing.T) {
	wl, err := findWorkload("meta-read")
	if err != nil {
		t.Fatal(err)
	}
	cells := wl.cells()
	want := append([]expected(nil), recorded(t)["meta-read"][:3]...)
	want[1].digest = strings.Repeat("0", 64)
	var o outcome
	o.tally(pass(cells, digestSeed, 3, want, nil))
	if o.failed != 1 || o.digestMismatches != 1 || !strings.HasPrefix(o.failures[0], "op 1:") {
		t.Errorf("corrupted digest: %d failed, %d mismatched, %q", o.failed, o.digestMismatches, o.failures)
	}

	// Ops 0-2 are lossless single-client cells: loss planted in op 2's
	// test bed makes it retransmit.
	o = outcome{}
	o.tally(pass(cells, 7, 3, nil, func(i int, tb *nfssim.Testbed) {
		if i == 2 {
			tb.Net.SetLoss(netsim.LossConfig{Rate: 0.05})
		}
	}))
	if o.failed != 1 || !strings.Contains(o.failures[0], "op 2: ") || !strings.Contains(o.failures[0], "retransmits") {
		t.Errorf("planted loss: %d failed, %q", o.failed, o.failures)
	}
}

func TestTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if p, ok := highestTail(100); !ok || p != 0.9 {
		t.Errorf("highest tail at n=100: p%g, %v", 100*p, ok)
	}
	if v, err := tail(xs, 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 beyond", v, err)
	}
	if _, err := tail(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples accepted with 9 beyond")
	}
	if _, err := tail(xs, 0.99); err == nil {
		t.Error("p99 of 100 samples accepted")
	}
	if _, ok := highestTail(99); ok {
		t.Error("99 samples support a tail")
	}
	if p, _ := highestTail(1000); p != 0.99 {
		t.Errorf("highest tail at n=1000: p%g", 100*p)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.chansend1", "repro/internal/sim.(*Sim).handoff", "repro/internal/sim.(*Proc).park"}, "sim.handoff"},
		{[]string{"repro/internal/sim.eventLess", "repro/internal/sim.(*eventQueue).pop", "repro/internal/sim.(*Sim).schedule"}, "sim.queue"},
		{[]string{"runtime.mapassign_faststr", "repro/internal/sim.(*Profiler).Add", "repro/internal/sim.(*CPUPool).Use"}, "sim.profiler"},
		{[]string{"runtime.mallocgc", "repro/internal/streamsim.(*Endpoint).sendSegment"}, "streamsim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime.sched"},
		{[]string{"crypto/sha256.block", "main.digest", "repro/internal/harness.RunScenarioOn"}, "bench"},
		{[]string{"repro.NewTestbed"}, "nfssim"},
		{[]string{"repro/internal/rangeset.(*Set).Add", "repro/internal/server.(*Server).serve"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// The decoder's buckets over a profile recorded here sum to 1.
func TestProfileSharesSumToOne(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler in use:", err)
	}
	wl, err := findWorkload("paper-write")
	if err != nil {
		t.Fatal(err)
	}
	cells := wl.cells()[:1]
	for start := hostNow(); hostNow().Sub(start) < 300*time.Millisecond; {
		pass(cells, digestSeed, 1, nil, nil)
	}
	pprof.StopCPUProfile()
	shares, samples, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, b := range shareBuckets {
		sum += shares[b]
	}
	if len(shares) != len(shareBuckets) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("%d buckets summing to %v over %d samples", len(shares), sum, samples)
	}
	if shares["core"]+shares["sim.queue"]+shares["sim.handoff"] == 0 {
		t.Errorf("no samples in the simulator: %v", shares)
	}
}

// Span self times add up to the op's duration, and the trace file is
// Trace Event JSON with every span in it.
func TestSpanSelfTimes(t *testing.T) {
	wl, err := findWorkload("meta-read")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	for i, r := range pass(wl.cells(), 7, 2, nil, nil) {
		s := opSpans(i, r)
		var sum time.Duration
		var walk func(s span)
		walk = func(s span) {
			sum += s.self()
			for _, c := range s.children {
				walk(c)
			}
		}
		walk(s[0])
		if sum != s[0].dur() || s[0].dur() != r.opTime() {
			t.Errorf("op %d: self times sum to %v, op span %v, op time %v", i, sum, s[0].dur(), r.opTime())
		}
		spans = append(spans, s...)
	}

	t0 := time.Unix(0, 0)
	gappy := span{start: t0, end: t0.Add(10), children: []span{
		{start: t0.Add(1), end: t0.Add(3)}, {start: t0.Add(5), end: t0.Add(9)},
	}}
	if gappy.self() != 4 {
		t.Errorf("self time of a 10ns span with 6ns of children = %v", gappy.self())
	}

	path := filepath.Join(t.TempDir(), "t.trace.json")
	if err := writeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := readJSON(path, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 8 {
		t.Errorf("%d trace events for 2 ops, want 8", len(doc.TraceEvents))
	}
}

// The metric and workload lists agree with BENCHMARK.json, and the last
// output line carries exactly the listed metrics for its mode.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []bound `json:"end_to_end"`
		PerLayer []bound `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, wl := range workloads {
		ours = append(ours, wl.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(ours) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", ours, names)
	}
	for _, c := range []struct {
		defs []metricDef
		spec []bound
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Errorf("%d metrics, BENCHMARK.json lists %d", len(c.defs), len(c.spec))
			continue
		}
		for i, d := range c.defs {
			if s := c.spec[i]; d.name != s.Name || d.unit != s.Unit || d.better != s.Better {
				t.Errorf("metric %d: %v, BENCHMARK.json has %+v", i, d, s)
			}
		}
	}

	o := outcome{attempted: 3, metrics: map[string]float64{}}
	for _, traced := range []bool{false, true} {
		data, err := json.Marshal(o.result(traced))
		if err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		var metrics map[string]metricValue
		if err := json.Unmarshal(data, &line); err != nil || len(line) != 4 {
			t.Fatalf("last line %s", data)
		}
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := map[bool]int{false: len(spec.EndToEnd), true: len(spec.PerLayer)}[traced]
		if len(metrics) != want {
			t.Errorf("traced=%v: %d metrics, want %d", traced, len(metrics), want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	b := bound{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	shift := func(f func(float64) float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = f(x)
		}
		return out
	}
	for _, c := range []struct {
		name       string
		base, head []float64
		want       string
	}{
		{"clear gain", base, shift(func(x float64) float64 { return x - 20 }), "improved"},
		{"gain inside the base spread", base, shift(func(x float64) float64 { return x - 3 }), "no worse"},
		{"within bound", base, shift(func(x float64) float64 { return x * 1.05 }), "no worse"},
		{"past bound", base, shift(func(x float64) float64 { return x * 1.2 }), "worse"},
		{"noisy base", shift(func(x float64) float64 { return 10 * (x - 99) }),
			shift(func(x float64) float64 { return 10 * (x - 99) }), "unresolved"},
	} {
		if got, _ := verdict(b, c.base, c.head); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	dir := t.TempDir()
	var args []string
	for _, side := range []string{"base", "head"} {
		args = append(args, "-"+side)
		for i := 0; i < minPairs; i++ {
			ms := base[i]
			if side == "head" {
				ms -= 20
			}
			r := report{Seed: int64(i), Workloads: map[string]result{"w": {Correct: true, Attempted: 100,
				Metrics: map[string]metricValue{"op_ms_p50": {ms, "ms"}}}}}
			path := filepath.Join(dir, fmt.Sprintf("%s%d.json", side, i))
			data, _ := json.Marshal(r)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			args = append(args, path)
		}
	}
	var out, errOut bytes.Buffer
	code := compare(append([]string{"-benchmark", "../BENCHMARK.json"}, args...), &out, &errOut)
	if code != 0 || !strings.Contains(out.String(), "op_ms_p50            base 104.5") ||
		!strings.Contains(out.String(), "wins 10/10  improved") {
		t.Errorf("compare exit %d:\n%s%s", code, out.String(), errOut.String())
	}
}

// On the benchmark's one P a calibration unit allocates nothing, so the
// allocation metrics count the simulator's allocations alone.
func TestCalibrationAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gomaxprocs))
	for i := 0; i < 100; i++ {
		calibrate()
	}
	if n := testing.AllocsPerRun(100, func() { calibrate() }); n != 0 {
		t.Errorf("a calibration unit allocates %v times", n)
	}
}
