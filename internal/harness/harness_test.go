package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/rpcsim"
)

func TestGridExpandIsExactCrossProduct(t *testing.T) {
	g := Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux, nfssim.ServerNone},
		Configs:     []ClientConfig{{"stock", core.Stock244Config()}, {"enhanced", core.EnhancedConfig()}},
		FileSizesMB: []int{5, 10},
		WSizes:      []int{8192, 16384},
		ClientCPUs:  []int{1, 2},
		Clients:     []int{1, 4},
		Jumbo:       []bool{false, true},
		Seeds:       []int64{1, 7},
		Repeats:     3,
	}
	scens := g.Expand()
	want := 3 * 2 * 2 * 2 * 2 * 2 * 2 * 2 * 3
	if len(scens) != want {
		t.Fatalf("expanded %d scenarios, want %d", len(scens), want)
	}
	// Every combination appears exactly once.
	seen := make(map[string]bool, len(scens))
	for _, sc := range scens {
		n := sc.Name()
		if seen[n] {
			t.Fatalf("duplicate scenario %s", n)
		}
		seen[n] = true
	}
	// Spot-check axis values survive into the scenario.
	for _, sc := range scens {
		if sc.WSize != 8192 && sc.WSize != 16384 {
			t.Fatalf("unexpected wsize %d", sc.WSize)
		}
		if sc.Clients != 1 && sc.Clients != 4 {
			t.Fatalf("unexpected clients %d", sc.Clients)
		}
		if sc.Repeat < 0 || sc.Repeat > 2 {
			t.Fatalf("unexpected repeat %d", sc.Repeat)
		}
		// Seed carries the repeat offset (stride = the base-seed span,
		// here 7-1+1) from its base seed.
		stride := int64(7 * sc.Repeat)
		if sc.Seed != 1+stride && sc.Seed != 7+stride {
			t.Fatalf("seed %d inconsistent with repeat %d", sc.Seed, sc.Repeat)
		}
	}
	// No cell aggregates two runs of the same seed: (cell, seed) pairs
	// are unique, so repeats never duplicate a bit-identical run.
	assertUniqueCellSeeds(t, scens)
}

func assertUniqueCellSeeds(t *testing.T, scens []Scenario) {
	t.Helper()
	cellSeeds := make(map[string]bool, len(scens))
	for _, sc := range scens {
		k := fmt.Sprintf("%s/%d", sc.Key(), sc.Seed)
		if cellSeeds[k] {
			t.Fatalf("duplicate (cell, seed) %s", k)
		}
		cellSeeds[k] = true
	}
}

func TestGridExpandSeedsNeverCollideAcrossRepeats(t *testing.T) {
	// Base seeds whose difference is a multiple of the list length used
	// to collide under a count-based stride ({1,3} x 2 repeats reused
	// seed 3); the span-based stride keeps every run seed unique.
	assertUniqueCellSeeds(t, Grid{Seeds: []int64{1, 3}, Repeats: 2}.Expand())
	assertUniqueCellSeeds(t, Grid{Seeds: []int64{5, 2, 9}, Repeats: 4}.Expand())
	// Single base seed still yields the documented seed, seed+1, ...
	for i, sc := range (Grid{Seeds: []int64{5}, Repeats: 3}).Expand() {
		if sc.Seed != int64(5+i) {
			t.Fatalf("repeat %d seed = %d, want %d", i, sc.Seed, 5+i)
		}
	}
}

func TestGridExpandDefaults(t *testing.T) {
	scens := Grid{}.Expand()
	if len(scens) != 1 {
		t.Fatalf("empty grid expanded to %d scenarios, want 1", len(scens))
	}
	sc := scens[0]
	if sc.Server != nfssim.ServerFiler || sc.Config.Name != "stock" ||
		sc.FileMB != 40 || sc.WSize != core.DefaultWSize ||
		sc.ClientCPUs != 2 || sc.Clients != 1 ||
		sc.CacheLimit != mm.DefaultDirtyLimit ||
		sc.Jumbo || sc.Seed != 1 {
		t.Fatalf("unexpected defaults: %+v", sc)
	}
	if sc.TimeLimit == 0 {
		t.Fatal("time limit not defaulted")
	}
}

func TestGridExpandDeterministicOrder(t *testing.T) {
	g := Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerNone},
		FileSizesMB: []int{1, 2, 3},
		Repeats:     2,
	}
	a, b := g.Expand(), g.Expand()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same grid expanded to different scenario orders")
	}
}

// testGrid is a small-but-real grid used by the runner tests: 8 runs,
// ~1 MB each, covering two servers and two configs.
func testGrid() Grid {
	return Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux},
		Configs:     []ClientConfig{{"stock", core.Stock244Config()}, {"enhanced", core.EnhancedConfig()}},
		FileSizesMB: []int{1},
		Repeats:     2,
	}
}

func TestRunnerOutputIdenticalAcrossWorkerCounts(t *testing.T) {
	scens := testGrid().Expand()
	var streamed1, streamed8 []string
	r1 := (&Runner{Workers: 1, OnResult: func(r Result) { streamed1 = append(streamed1, r.Name) }}).Run(scens)
	r8 := (&Runner{Workers: 8, OnResult: func(r Result) { streamed8 = append(streamed8, r.Name) }}).Run(scens)
	if len(r1) != len(scens) || len(r8) != len(scens) {
		t.Fatalf("result counts %d/%d, want %d", len(r1), len(r8), len(scens))
	}
	c1, c8 := ResultsCSV(r1), ResultsCSV(r8)
	if c1 != c8 {
		t.Fatalf("CSV differs between 1 and 8 workers:\n%s\nvs\n%s", c1, c8)
	}
	if ResultsJSON(r1) != ResultsJSON(r8) {
		t.Fatal("JSON differs between 1 and 8 workers")
	}
	// Streaming delivery is in scenario order for both.
	if !reflect.DeepEqual(streamed1, streamed8) {
		t.Fatalf("streamed order differs:\n%v\nvs\n%v", streamed1, streamed8)
	}
	for i, sc := range scens {
		if streamed1[i] != sc.Name() {
			t.Fatalf("streamed[%d] = %s, want %s", i, streamed1[i], sc.Name())
		}
	}
}

func TestRunnerResultsMatchScenarioOrder(t *testing.T) {
	scens := testGrid().Expand()
	results := (&Runner{Workers: 4, KeepTraces: true}).Run(scens)
	for i, r := range results {
		if r.Name != scens[i].Name() {
			t.Fatalf("results[%d] = %s, want %s", i, r.Name, scens[i].Name())
		}
		if r.Calls != 128 { // 1 MB / 8 KB
			t.Fatalf("results[%d].Calls = %d, want 128", i, r.Calls)
		}
		if r.WriteMBps <= 0 || r.Trace == nil || r.Trace.Len() != r.Calls {
			t.Fatalf("results[%d] incomplete: %+v", i, r)
		}
	}
	// Without KeepTraces, traces are dropped so big grids don't pin
	// every per-call sample for the whole sweep.
	for i, r := range (&Runner{Workers: 4}).Run(scens[:2]) {
		if r.Trace != nil {
			t.Fatalf("results[%d] retained its trace without KeepTraces", i)
		}
	}
}

func TestAggregateRepeats(t *testing.T) {
	g := testGrid()
	g.Repeats = 3
	results := (&Runner{Workers: 4}).Run(g.Expand())
	aggs := AggregateResults(results)
	if len(aggs) != 4 { // 2 servers x 2 configs x 1 size
		t.Fatalf("got %d aggregates, want 4", len(aggs))
	}
	for _, a := range aggs {
		if a.N != 3 {
			t.Fatalf("cell %s aggregated %d runs, want 3", a.Key, a.N)
		}
	}
	// Hand-check one cell's mean against its member runs.
	var member []float64
	for _, r := range results {
		if r.Scenario.Key() == aggs[0].Key {
			member = append(member, r.WriteMBps)
		}
	}
	var sum float64
	for _, x := range member {
		sum += x
	}
	if got, want := aggs[0].WriteMBpsMean, sum/float64(len(member)); math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", got, want)
	}
	// Repeats use distinct seeds, so runs are not literally identical
	// (the client cost model has deterministic per-seed jitter)...
	if aggs[0].MeanLatUsStddev == 0 {
		t.Fatal("expected nonzero latency stddev across distinct seeds")
	}
	// ...but cell summaries must be tight: jitter is 4%.
	if aggs[0].WriteMBpsStddev > aggs[0].WriteMBpsMean*0.10 {
		t.Fatalf("stddev %g implausibly large vs mean %g", aggs[0].WriteMBpsStddev, aggs[0].WriteMBpsMean)
	}
}

func TestSameSeedSameResult(t *testing.T) {
	sc := Grid{FileSizesMB: []int{1}}.Expand()[0]
	a, b := RunScenario(sc), RunScenario(sc)
	a.Trace, b.Trace = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same scenario produced different results:\n%+v\nvs\n%+v", a, b)
	}
}

func TestParseSizes(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []int
	}{
		{"25..450:25", func() []int {
			var s []int
			for mb := 25; mb <= 450; mb += 25 {
				s = append(s, mb)
			}
			return s
		}()},
		{"25..100:25", []int{25, 50, 75, 100}},
		{"10..30", []int{10}}, // default step 25
		{"5,40,100", []int{5, 40, 100}},
		{"40", []int{40}},
	} {
		got, err := ParseSizes(tc.spec)
		if err != nil {
			t.Fatalf("ParseSizes(%q): %v", tc.spec, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("ParseSizes(%q) = %v, want %v", tc.spec, got, tc.want)
		}
	}
	for _, bad := range []string{"", "0", "-5", "a..b", "10..5", "10..20:0", "x"} {
		if _, err := ParseSizes(bad); err == nil {
			t.Fatalf("ParseSizes(%q) should fail", bad)
		}
	}
}

func TestParseServersAndConfigs(t *testing.T) {
	srvs, err := ParseList("filer, linux,slow100,local", serverByName)
	if err != nil {
		t.Fatal(err)
	}
	want := []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux, nfssim.ServerSlow100, nfssim.ServerNone}
	if !reflect.DeepEqual(srvs, want) {
		t.Fatalf("servers = %v", srvs)
	}
	if _, err := ParseList("netapp", serverByName); err == nil {
		t.Fatal("bad server name should fail")
	}
	cfgs, err := ParseList("stock,enhanced", ConfigByName)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].Name != "stock" || cfgs[1].Name != "enhanced" {
		t.Fatalf("configs = %v", cfgs)
	}
	if cfgs[1].Config.IndexPolicy != core.IndexHashTable {
		t.Fatal("enhanced config not resolved")
	}
	if _, err := ParseList("turbo", ConfigByName); err == nil {
		t.Fatal("bad config name should fail")
	}
}

func TestParseList(t *testing.T) {
	if xs, err := ParseList("", positiveInt); xs != nil || err != nil {
		t.Fatalf("empty spec = %v, %v; want the empty axis", xs, err)
	}
	if xs, err := ParseList("1, 2,8", positiveInt); err != nil || !reflect.DeepEqual(xs, []int{1, 2, 8}) {
		t.Fatalf("ParseList = %v, %v", xs, err)
	}
	for _, bad := range []string{"0", "-3", "x", "1,,2"} {
		if _, err := ParseList(bad, positiveInt); err == nil {
			t.Fatalf("ParseList(%q) accepted", bad)
		}
	}
	if xs, err := ParseList("8192, 32768", wsize); err != nil || !reflect.DeepEqual(xs, []int{8192, 32768}) {
		t.Fatalf("wsizes = %v, %v", xs, err)
	}
	for _, ws := range []string{"0", "-8192", "1000"} {
		if _, err := wsize(ws); err == nil {
			t.Fatalf("wsize %s accepted", ws)
		}
	}
	for _, bad := range []string{"1", "-0.1", "NaN"} {
		if _, err := lossRate(bad); err == nil {
			t.Fatalf("loss rate %q accepted", bad)
		}
	}
	if zs, err := ParseList("1.2,uniform", zipfS); err != nil || !reflect.DeepEqual(zs, []float64{1.2, bonnie.ZipfUniform}) {
		t.Fatalf("zipf exponents = %v, %v", zs, err)
	}
	if acs, err := ParseList("off,default,3s", acTimeout); err != nil || !reflect.DeepEqual(acs, []time.Duration{core.AcOff, 0, 3 * time.Second}) {
		t.Fatalf("ac timeouts = %v, %v", acs, err)
	}
	if sws, err := ParseList("default,25", sharing); err != nil || !reflect.DeepEqual(sws, []int{0, 25}) {
		t.Fatalf("sharings = %v, %v", sws, err)
	}
	if ms, err := ParseList("ttl,strict,noac", consistencyByName); err != nil ||
		!reflect.DeepEqual(ms, []core.ConsistencyMode{core.ConsistencyTTL, core.ConsistencyStrict, core.ConsistencyNoac}) {
		t.Fatalf("consistencies = %v, %v", ms, err)
	}
}

func TestFormatsRenderSchema(t *testing.T) {
	results := (&Runner{Workers: 2}).Run(Grid{FileSizesMB: []int{1}, Repeats: 2}.Expand())
	csv := ResultsCSV(results)
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2 rows", len(lines))
	}
	if got, want := len(strings.Split(lines[1], ",")), len(strings.Split(lines[0], ",")); got != want {
		t.Fatalf("row has %d fields, header %d", got, want)
	}
	if !strings.HasPrefix(lines[0], "name,server,config,file_mb") {
		t.Fatalf("unexpected header %q", lines[0])
	}
	js := ResultsJSON(results)
	if !strings.Contains(js, `"write_mbps"`) || !strings.Contains(js, `"p99_lat_us"`) {
		t.Fatal("JSON schema missing fields")
	}
	tbl := ResultsTable(results)
	if !strings.Contains(tbl, "write MB/s") {
		t.Fatal("table missing columns")
	}
	aggs := AggregateResults(results)
	if !strings.Contains(AggregatesCSV(aggs), "write_mbps_mean") {
		t.Fatal("aggregate CSV schema missing fields")
	}
	if !strings.Contains(AggregatesJSON(aggs), `"write_mbps_stddev"`) {
		t.Fatal("aggregate JSON schema missing fields")
	}
}

// The Clients axis must be deterministic across worker counts like every
// other axis: multi-client scenarios run N writers in one sim, and the
// streamed CSV must still be byte-identical for any pool size.
func TestMultiClientDeterministicAcrossWorkers(t *testing.T) {
	g := Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler},
		Configs:     []ClientConfig{{"stock", core.Stock244Config()}, {"enhanced", core.EnhancedConfig()}},
		FileSizesMB: []int{1},
		Clients:     []int{1, 2, 3},
		Repeats:     2,
	}
	scens := g.Expand()
	if len(scens) != 2*3*2 {
		t.Fatalf("expanded %d scenarios, want 12", len(scens))
	}
	r1 := (&Runner{Workers: 1}).Run(scens)
	r8 := (&Runner{Workers: 8}).Run(scens)
	if ResultsCSV(r1) != ResultsCSV(r8) {
		t.Fatal("multi-client CSV differs between 1 and 8 workers")
	}
	if AggregatesCSV(AggregateResults(r1)) != AggregatesCSV(AggregateResults(r8)) {
		t.Fatal("multi-client aggregate CSV differs between 1 and 8 workers")
	}
}

// Multi-client results must populate the scale-out fields: one per-client
// throughput per machine, an aggregate at least the best single share,
// and a meaningful Jain fairness index.
func TestMultiClientFairnessFields(t *testing.T) {
	sc := Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler},
		Configs:     []ClientConfig{{"enhanced", core.EnhancedConfig()}},
		FileSizesMB: []int{1},
		Clients:     []int{2},
	}.Expand()[0]
	r := RunScenario(sc)
	if r.Clients != 2 {
		t.Fatalf("clients = %d", r.Clients)
	}
	if len(r.PerClientMBps) != 2 {
		t.Fatalf("per-client throughputs = %v, want 2 entries", r.PerClientMBps)
	}
	for i, mbps := range r.PerClientMBps {
		if mbps <= 0 {
			t.Fatalf("client %d throughput %v", i, mbps)
		}
	}
	if r.Calls != 2*128 { // two writers x 1 MB / 8 KB
		t.Fatalf("calls = %d, want 256", r.Calls)
	}
	if r.AggMBps < r.MaxClientMBps {
		t.Fatalf("aggregate %.2f below best client %.2f", r.AggMBps, r.MaxClientMBps)
	}
	if r.Fairness <= 0.5 || r.Fairness > 1 {
		t.Fatalf("fairness = %.3f, want in (0.5, 1]", r.Fairness)
	}
	if r.MinClientMBps > r.MaxClientMBps {
		t.Fatalf("min %.2f > max %.2f", r.MinClientMBps, r.MaxClientMBps)
	}
	// Single-client runs collapse the fleet fields.
	sc.Clients = 1
	r1 := RunScenario(sc)
	if r1.Fairness != 1 || len(r1.PerClientMBps) != 1 || r1.AggMBps != r1.PerClientMBps[0] {
		t.Fatalf("single-client fleet fields wrong: %+v", r1)
	}
}

// Golden regression: with the loss model disabled and the default UDP
// transport, the sweep engine must reproduce the golden CSV byte for
// byte at any worker count. testdata/golden_loss0.csv was re-captured
// after the weak-cache-consistency change (fattr3 grew the change
// attribute and WRITE3 replies carry wcc_data, which shifts every wire
// timing) with:
//
//	nfssweep -servers filer,linux -configs stock,enhanced -sizes 25 \
//	    -clients 1,2 -format csv -quiet
func TestLossZeroMatchesPreChangeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four 25 MB and four 50 MB-aggregate sims")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_loss0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Servers:        []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux},
		Configs:        []ClientConfig{{"stock", core.Stock244Config()}, {"enhanced", core.EnhancedConfig()}},
		FileSizesMB:    []int{25},
		Clients:        []int{1, 2},
		LossRates:      []float64{0}, // explicit zero must equal "absent"
		SkipFlushClose: true,
	}
	got := ResultsCSV((&Runner{Workers: 4}).Run(g.Expand()))
	if got != string(want) {
		t.Fatalf("loss=0 sweep diverged from pre-change golden CSV:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// The transport/loss axes expand like any other axis and stay worker-
// deterministic: the acceptance grid (-transport udp,tcp -loss 0,0.01)
// must produce byte-identical CSV at any pool size.
func TestTransportLossDeterministicAcrossWorkers(t *testing.T) {
	g := Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler},
		Configs:     []ClientConfig{{"stock", core.Stock244Config()}},
		FileSizesMB: []int{1},
		Transports:  []rpcsim.TransportKind{rpcsim.TransportUDP, rpcsim.TransportTCP},
		LossRates:   []float64{0, 0.01},
	}
	scens := g.Expand()
	if len(scens) != 4 {
		t.Fatalf("expanded %d scenarios, want 4", len(scens))
	}
	r1 := (&Runner{Workers: 1}).Run(scens)
	r8 := (&Runner{Workers: 8}).Run(scens)
	if ResultsCSV(r1) != ResultsCSV(r8) {
		t.Fatal("transport/loss CSV differs between 1 and 8 workers")
	}
	if ResultsJSON(r1) != ResultsJSON(r8) {
		t.Fatal("transport/loss JSON differs between 1 and 8 workers")
	}
	if ResultsTable(r1) != ResultsTable(r8) {
		t.Fatal("transport/loss table differs between 1 and 8 workers")
	}
}

// Key back-compat: default transport and zero loss add nothing to the
// scenario key (so historical names and goldens survive), while
// non-default values land in distinct cells.
func TestKeyBackCompatAndNewAxes(t *testing.T) {
	base := Grid{FileSizesMB: []int{5}}.Expand()[0]
	if s := base.Key(); strings.Contains(s, "udp") || strings.Contains(s, "/l") {
		t.Fatalf("default key %q mentions the new axes", s)
	}
	tcp := base
	tcp.Transport = rpcsim.TransportTCP
	lossy := base
	lossy.Loss = 0.01
	jittery := base
	jittery.NetJitter = 200 * time.Microsecond
	keys := map[string]bool{}
	for _, sc := range []Scenario{base, tcp, lossy, jittery} {
		keys[sc.Key()] = true
	}
	if len(keys) != 4 {
		t.Fatalf("axes collapsed into %d keys: %v", len(keys), keys)
	}
	if !strings.HasSuffix(tcp.Key(), "/tcp") {
		t.Fatalf("tcp key = %q", tcp.Key())
	}
	if !strings.HasSuffix(lossy.Key(), "/l0.01") {
		t.Fatalf("loss key = %q", lossy.Key())
	}
}

// Lossy multi-client scenarios must stay worker-deterministic too: the
// loss stream is per-testbed, so concurrent scenario execution cannot
// perturb drop patterns.
func TestLossyResultsReportRepairTraffic(t *testing.T) {
	sc := Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler},
		Configs:     []ClientConfig{{"stock", core.Stock244Config()}},
		FileSizesMB: []int{1},
		LossRates:   []float64{0.05},
	}.Expand()[0]
	r := RunScenario(sc)
	if r.Loss != 0.05 || r.Transport != "udp" {
		t.Fatalf("axes not recorded: %+v", r)
	}
	if r.Retransmits == 0 || r.LostFrames == 0 {
		t.Fatalf("no repair traffic recorded at 5%% loss: retransmits=%d lost_frames=%d",
			r.Retransmits, r.LostFrames)
	}
	again := RunScenario(sc)
	if r.Retransmits != again.Retransmits || r.LostFrames != again.LostFrames {
		t.Fatal("same scenario produced different loss pattern")
	}
}

// Golden regression: a pure-write sweep (the default Workload) must
// reproduce the golden CSV byte for byte, at any worker count.
// testdata/golden_write_only.csv was re-captured after the
// weak-cache-consistency change (WRITE3 replies grew wcc_data) by
// running this exact grid (full write+flush+close runs, 12 scenarios
// over filer/linux/local x stock/enhanced x 1,2 clients at 10 MB).
func TestWriteOnlySweepMatchesPreReadPathGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs twelve full 10 MB sims twice")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden_write_only.csv"))
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux, nfssim.ServerNone},
		Configs:     []ClientConfig{{"stock", core.Stock244Config()}, {"enhanced", core.EnhancedConfig()}},
		FileSizesMB: []int{10},
		Clients:     []int{1, 2},
		Workloads:   []bonnie.Workload{bonnie.WorkloadWrite}, // explicit default must equal "absent"
	}
	for _, workers := range []int{1, 8} {
		got := ResultsCSV((&Runner{Workers: workers}).Run(g.Expand()))
		if got != string(want) {
			t.Fatalf("write-only sweep (workers=%d) diverged from pre-read-path golden CSV:\n--- want ---\n%s--- got ---\n%s",
				workers, want, got)
		}
	}
}

// The workload axis expands like any other axis, lands in distinct cells
// at non-default values, and keeps the default key byte-identical.
func TestWorkloadAxisExpandAndKey(t *testing.T) {
	g := Grid{
		FileSizesMB: []int{5},
		Workloads: []bonnie.Workload{bonnie.WorkloadWrite, bonnie.WorkloadRewrite,
			bonnie.WorkloadRead, bonnie.WorkloadMixed},
	}
	scens := g.Expand()
	if len(scens) != 4 {
		t.Fatalf("expanded %d scenarios, want 4", len(scens))
	}
	keys := map[string]bool{}
	for _, sc := range scens {
		keys[sc.Key()] = true
	}
	if len(keys) != 4 {
		t.Fatalf("workloads collapsed into %d keys: %v", len(keys), keys)
	}
	if k := scens[0].Key(); strings.Contains(k, "write") {
		t.Fatalf("default workload key %q mentions the axis", k)
	}
	if !strings.HasSuffix(scens[2].Key(), "/read") {
		t.Fatalf("read key = %q", scens[2].Key())
	}
	if !strings.HasSuffix(scens[3].Key(), "/mixed") {
		t.Fatalf("mixed key = %q", scens[3].Key())
	}
}

// Read and mixed workloads must stay worker-deterministic like every
// other axis (the CI determinism job diffs this grid at -workers 1 vs 8).
func TestReadMixedDeterministicAcrossWorkers(t *testing.T) {
	g := Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler},
		Configs:     []ClientConfig{{"stock", core.Stock244Config()}, {"enhanced", core.EnhancedConfig()}},
		FileSizesMB: []int{1},
		Clients:     []int{1, 2},
		Workloads:   []bonnie.Workload{bonnie.WorkloadRead, bonnie.WorkloadMixed},
	}
	scens := g.Expand()
	if len(scens) != 8 {
		t.Fatalf("expanded %d scenarios, want 8", len(scens))
	}
	r1 := (&Runner{Workers: 1}).Run(scens)
	r8 := (&Runner{Workers: 8}).Run(scens)
	if ResultsCSV(r1) != ResultsCSV(r8) {
		t.Fatal("read/mixed CSV differs between 1 and 8 workers")
	}
	if ResultsJSON(r1) != ResultsJSON(r8) {
		t.Fatal("read/mixed JSON differs between 1 and 8 workers")
	}
}

// Read-workload results must carry the read-path fields: read RPCs on
// NFS targets, hit/miss accounting, and the workload name in JSON.
func TestReadWorkloadResultFields(t *testing.T) {
	sc := Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler},
		Configs:     []ClientConfig{{"enhanced", core.EnhancedConfig()}},
		FileSizesMB: []int{1},
		Workloads:   []bonnie.Workload{bonnie.WorkloadRead},
	}.Expand()[0]
	r := RunScenario(sc)
	if r.Workload != "read" {
		t.Fatalf("workload = %q", r.Workload)
	}
	if r.Calls != 128 {
		t.Fatalf("calls = %d, want 128", r.Calls)
	}
	if r.ReadRPCs == 0 {
		t.Fatal("no READ RPCs recorded")
	}
	if r.ReadHits+r.ReadMisses != 256 { // 1 MB = 256 page lookups
		t.Fatalf("read lookups = %d + %d, want 256", r.ReadHits, r.ReadMisses)
	}
	if r.WriteMBps <= 0 {
		t.Fatal("read throughput not recorded")
	}
	if !strings.Contains(ResultsJSON([]Result{r}), `"read_rpcs"`) {
		t.Fatal("JSON schema missing read fields")
	}
	// Write-only runs keep zero read counters.
	sc.Workload = bonnie.WorkloadWrite
	rw := RunScenario(sc)
	if rw.ReadRPCs != 0 || rw.ReadHits != 0 || rw.ReadMisses != 0 {
		t.Fatalf("write-only run recorded read activity: %+v", rw)
	}
}

// The random workloads and the FsyncEvery knob land in distinct cells at
// non-default values and keep the default key byte-identical.
func TestRandomWorkloadAndFsyncKey(t *testing.T) {
	base := Grid{FileSizesMB: []int{5}}.Expand()[0]
	if k := base.Key(); strings.Contains(k, "/f") {
		t.Fatalf("default key %q mentions the fsync knob", k)
	}
	randw := base
	randw.Workload = bonnie.WorkloadRandWrite
	if !strings.HasSuffix(randw.Key(), "/randwrite") {
		t.Fatalf("randwrite key = %q", randw.Key())
	}
	db := base
	db.Workload = bonnie.WorkloadDB
	db.FsyncEvery = 50
	if !strings.HasSuffix(db.Key(), "/db/f50") {
		t.Fatalf("db key = %q", db.Key())
	}
	keys := map[string]bool{}
	for _, sc := range []Scenario{base, randw, db} {
		keys[sc.Key()] = true
	}
	if len(keys) != 3 {
		t.Fatalf("scenarios collapsed into %d keys: %v", len(keys), keys)
	}
	// Grid.FsyncEvery is a scalar knob applied to every scenario.
	g := Grid{FileSizesMB: []int{5}, FsyncEvery: 64,
		Workloads: []bonnie.Workload{bonnie.WorkloadRandWrite}}
	for _, sc := range g.Expand() {
		if sc.FsyncEvery != 64 {
			t.Fatalf("FsyncEvery not threaded: %+v", sc)
		}
	}
}

// Random workloads must stay worker-deterministic like every other axis:
// the chunk permutation derives from the scenario seed, not from any
// shared rng, so the CI determinism job can diff -workers 1 vs 8.
func TestRandomWorkloadDeterministicAcrossWorkers(t *testing.T) {
	g := Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler},
		Configs:     []ClientConfig{{"stock", core.Stock244Config()}, {"hash", core.HashConfig()}},
		FileSizesMB: []int{1},
		Clients:     []int{1, 2},
		Workloads:   []bonnie.Workload{bonnie.WorkloadRandWrite, bonnie.WorkloadRandRead, bonnie.WorkloadDB},
	}
	scens := g.Expand()
	if len(scens) != 12 {
		t.Fatalf("expanded %d scenarios, want 12", len(scens))
	}
	r1 := (&Runner{Workers: 1}).Run(scens)
	r8 := (&Runner{Workers: 8}).Run(scens)
	if ResultsCSV(r1) != ResultsCSV(r8) {
		t.Fatal("random-workload CSV differs between 1 and 8 workers")
	}
	if ResultsJSON(r1) != ResultsJSON(r8) {
		t.Fatal("random-workload JSON differs between 1 and 8 workers")
	}
}

// Durability results must land in the JSON schema: db runs carry the
// group-commit counters, and COMMIT RPCs appear against a server that
// answers UNSTABLE.
func TestDBWorkloadResultFields(t *testing.T) {
	sc := Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerLinux},
		Configs:     []ClientConfig{{"enhanced", core.EnhancedConfig()}},
		FileSizesMB: []int{1},
		Workloads:   []bonnie.Workload{bonnie.WorkloadDB},
	}.Expand()[0]
	r := RunScenario(sc)
	if r.Workload != "db" {
		t.Fatalf("workload = %q", r.Workload)
	}
	if want := int64(128 / bonnie.DefaultDBFsyncEvery); r.FsyncCount != want {
		t.Fatalf("fsync count = %d, want %d", r.FsyncCount, want)
	}
	if r.FsyncUs <= 0 {
		t.Fatal("no fsync time recorded")
	}
	if r.CommitRPCs < r.FsyncCount {
		t.Fatalf("commit RPCs = %d for %d fsyncs against an UNSTABLE server",
			r.CommitRPCs, r.FsyncCount)
	}
	js := ResultsJSON([]Result{r})
	for _, want := range []string{`"commit_rpcs"`, `"fsync_count"`, `"fsync_us"`} {
		if !strings.Contains(js, want) {
			t.Fatalf("JSON schema missing %s", want)
		}
	}
	// Write-only runs carry zero durability counters against the filer.
	sc.Server = nfssim.ServerFiler
	sc.Workload = bonnie.WorkloadWrite
	rw := RunScenario(sc)
	if rw.CommitRPCs != 0 || rw.FsyncCount != 0 || rw.FsyncUs != 0 {
		t.Fatalf("write-only filer run recorded durability activity: %+v", rw)
	}
}

// Regression: cache limits differing by less than 1 MiB must land in
// distinct aggregation cells. Key used to print CacheLimit>>20, folding
// e.g. 16 MiB and 16 MiB+4 KiB into one mean/stddev.
func TestSubMBCacheLimitsDoNotAlias(t *testing.T) {
	g := Grid{
		FileSizesMB: []int{1},
		CacheLimits: []int64{16 << 20, 16<<20 + 4096},
	}
	scens := g.Expand()
	if len(scens) != 2 {
		t.Fatalf("expanded %d scenarios, want 2", len(scens))
	}
	if scens[0].Key() == scens[1].Key() {
		t.Fatalf("distinct cache limits share key %q", scens[0].Key())
	}
	results := (&Runner{Workers: 2}).Run(scens)
	aggs := AggregateResults(results)
	if len(aggs) != 2 {
		t.Fatalf("aggregated into %d cells, want 2", len(aggs))
	}
	for i, a := range aggs {
		if a.N != 1 {
			t.Fatalf("cell %d aggregated %d runs, want 1", i, a.N)
		}
		if a.CacheBytes != scens[i].CacheLimit {
			t.Fatalf("cell %d cache bytes %d, want %d", i, a.CacheBytes, scens[i].CacheLimit)
		}
	}
}

// RunScenario closes its simulation: the daemons, softirq loops and
// stream timers still parked when the workload ends must not outlive
// it, on either transport, and neither may those of a run that panics.
func TestRunScenarioLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	scens := Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux},
		FileSizesMB: []int{1},
		Clients:     []int{1, 3},
		Transports:  []rpcsim.TransportKind{rpcsim.TransportUDP, rpcsim.TransportTCP},
	}.Expand()
	for _, sc := range scens {
		RunScenario(sc)
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("%s: %d goroutines after the run, want the baseline %d", sc.Name(), n, base)
		}
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "sim: process panicked") {
				t.Errorf("recovered %v, want the simulator's process panic", r)
			}
		}()
		RunScenarioOn(scens[0], func(tb *nfssim.Testbed) {
			tb.Sim.After(time.Millisecond, func() { panic("injected") })
		})
	}()
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after a panicking run, want the baseline %d", n, base)
	}
}

// expandPinSHA256 is the SHA-256 of the Name() and %+v lines of every
// scenario randomExpandGrids expands to. It was recorded from the
// nested-loop Expand this package used to have, and re-derived when the
// client's calibrated costs left core.Config: the new text is the old
// with those fields' constant values removed, line for line. Any change
// to the nesting order, the seed-span repeat rule, or a default shows up
// here.
const expandPinSHA256 = "7bc74ff338fa8c9be818ea74f673eda593b53d3cf1812e6dd1d7924e2c0d1ad6"

// randomExpandGrids draws a fixed, seeded set of grids: each axis gets
// 0-2 values (0 leaves it to its default), and the scalar knobs and
// Repeats are drawn too.
func randomExpandGrids(n int) []Grid {
	rng := rand.New(rand.NewSource(17))
	pick := func() int { return rng.Intn(3) }
	configs := NamedConfigs()
	grids := make([]Grid, 0, n)
	for range n {
		var g Grid
		for range pick() {
			g.Servers = append(g.Servers, nfssim.ServerKind(rng.Intn(4)))
		}
		for range pick() {
			g.Configs = append(g.Configs, configs[rng.Intn(len(configs))])
		}
		for range pick() {
			g.FileSizesMB = append(g.FileSizesMB, rng.Intn(100))
		}
		for range pick() {
			g.WSizes = append(g.WSizes, 4096*rng.Intn(9))
		}
		for range pick() {
			g.ClientCPUs = append(g.ClientCPUs, rng.Intn(5))
		}
		for range pick() {
			g.Clients = append(g.Clients, rng.Intn(9))
		}
		for range pick() {
			g.CacheLimits = append(g.CacheLimits, int64(rng.Intn(1<<30)))
		}
		for range pick() {
			g.Jumbo = append(g.Jumbo, rng.Intn(2) == 1)
		}
		for range pick() {
			g.Transports = append(g.Transports, rpcsim.TransportKind(rng.Intn(2)))
		}
		for range pick() {
			g.LossRates = append(g.LossRates, float64(rng.Intn(10))/100)
		}
		for range pick() {
			g.Workloads = append(g.Workloads, bonnie.Workload(rng.Intn(9)))
		}
		for range pick() {
			g.FileCounts = append(g.FileCounts, rng.Intn(1000))
		}
		for range pick() {
			g.ZipfSs = append(g.ZipfSs, float64(rng.Intn(30)-1)/10)
		}
		for range pick() {
			g.AcTimeouts = append(g.AcTimeouts, time.Duration(rng.Intn(5)-1)*time.Second)
		}
		for range pick() {
			g.Sharings = append(g.Sharings, rng.Intn(101))
		}
		for range pick() {
			g.Consistencies = append(g.Consistencies, core.ConsistencyMode(rng.Intn(3)))
		}
		for range pick() {
			g.Seeds = append(g.Seeds, int64(rng.Intn(20)-5))
		}
		g.NetJitter = time.Duration(rng.Intn(3)) * 100 * time.Microsecond
		g.FsyncEvery = rng.Intn(3) * 16
		if rng.Intn(2) == 1 {
			g.Mix = bonnie.OpMix{Create: 10, Write: 30, Read: 40, Stat: 15, Remove: 5}
		}
		g.ReadLag = time.Duration(rng.Intn(3)) * time.Millisecond
		g.Repeats = rng.Intn(4)
		g.SkipFlushClose = rng.Intn(2) == 1
		g.TimeLimit = time.Duration(rng.Intn(2)) * time.Minute
		grids = append(grids, g)
	}
	return grids
}

// Expand is pinned byte for byte on random grids, not only on the
// hand-picked ones above: every axis, every default, every scalar knob.
func TestGridExpandMatchesPin(t *testing.T) {
	h := sha256.New()
	var n int
	for _, g := range randomExpandGrids(400) {
		for _, sc := range g.Expand() {
			fmt.Fprintf(h, "%s %+v\n", sc.Name(), sc)
			n++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != expandPinSHA256 {
		t.Fatalf("%d scenarios hash to %s, want %s", n, got, expandPinSHA256)
	}
}
