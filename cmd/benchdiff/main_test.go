package main

import (
	"strings"
	"testing"
)

func res(name string, metrics map[string]float64) Result {
	return Result{Name: name, Runs: 1, NsPerOp: 1, Metrics: metrics}
}

func TestClassifyPolarity(t *testing.T) {
	cases := map[string]polarity{
		"write-MB/s":         higherBetter,
		"filer-MB/s@100MB":   higherBetter,
		"filer-tx/s":         higherBetter,
		"ac-hit-rate":        higherBetter,
		"events/s":           hostRate,
		"events/sec":         hostRate,
		"mean-us":            lowerBetter,
		"filer-fsync-ms":     lowerBetter,
		"slope-ns/call":      lowerBetter,
		"spikes":             ungated,
		"spike-period-calls": ungated,
	}
	for unit, want := range cases {
		if got := classify(unit); got != want {
			t.Errorf("classify(%q) = %v, want %v", unit, got, want)
		}
	}
}

func TestDiffFailsOnRegression(t *testing.T) {
	oldSet := map[string]Result{
		"BenchmarkA": res("BenchmarkA", map[string]float64{"write-MB/s": 100, "mean-us": 50}),
	}
	// Throughput drop beyond 15% fails.
	newSet := map[string]Result{
		"BenchmarkA": res("BenchmarkA", map[string]float64{"write-MB/s": 80, "mean-us": 50}),
	}
	failures, _ := Diff(oldSet, newSet, 0.15)
	if len(failures) != 1 || !strings.Contains(failures[0], "write-MB/s") {
		t.Fatalf("failures = %v", failures)
	}
	// Latency rise beyond 15% fails.
	newSet["BenchmarkA"] = res("BenchmarkA", map[string]float64{"write-MB/s": 100, "mean-us": 60})
	failures, _ = Diff(oldSet, newSet, 0.15)
	if len(failures) != 1 || !strings.Contains(failures[0], "mean-us") {
		t.Fatalf("failures = %v", failures)
	}
}

func TestDiffToleratesDriftWithinThreshold(t *testing.T) {
	oldSet := map[string]Result{
		"BenchmarkA": res("BenchmarkA", map[string]float64{"write-MB/s": 100, "mean-us": 50, "spikes": 10}),
	}
	newSet := map[string]Result{
		// 10% worse both ways, and an ungated metric doubling: all pass.
		"BenchmarkA": res("BenchmarkA", map[string]float64{"write-MB/s": 90, "mean-us": 55, "spikes": 20}),
	}
	if failures, _ := Diff(oldSet, newSet, 0.15); len(failures) != 0 {
		t.Fatalf("failures = %v", failures)
	}
	// Improvements never fail, however large.
	newSet["BenchmarkA"] = res("BenchmarkA", map[string]float64{"write-MB/s": 500, "mean-us": 1, "spikes": 0})
	if failures, _ := Diff(oldSet, newSet, 0.15); len(failures) != 0 {
		t.Fatalf("improvement flagged: %v", failures)
	}
}

func TestDiffReportsMissingAndNewBenchmarks(t *testing.T) {
	oldSet := map[string]Result{
		"BenchmarkGone": res("BenchmarkGone", map[string]float64{"write-MB/s": 10}),
	}
	newSet := map[string]Result{
		"BenchmarkNew": res("BenchmarkNew", map[string]float64{"write-MB/s": 10}),
	}
	failures, notes := Diff(oldSet, newSet, 0.15)
	if len(failures) != 0 {
		t.Fatalf("membership changes must not fail the gate: %v", failures)
	}
	joined := strings.Join(notes, "\n")
	for _, want := range []string{"BenchmarkGone: only in old artifact", "BenchmarkNew: new benchmark"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("notes missing %q:\n%s", want, joined)
		}
	}
}

func TestRegressionZeroBaseline(t *testing.T) {
	if reg := regression("write-MB/s", 0, 0); reg != 0 {
		t.Fatalf("zero baseline regressed: %v", reg)
	}
}

func nsRes(name string, ns float64) Result {
	return Result{Name: name, Runs: 1, NsPerOp: ns}
}

func TestWallclockGatesKernelBenchmarksOnly(t *testing.T) {
	oldSet := map[string]Result{
		"BenchmarkKernelSchedule": nsRes("BenchmarkKernelSchedule", 100),
		"BenchmarkRandomSweep":    nsRes("BenchmarkRandomSweep", 1e9),
		"BenchmarkFleet1000":      nsRes("BenchmarkFleet1000", 5e9),
		"BenchmarkDBLoad":         nsRes("BenchmarkDBLoad", 100),
	}
	newSet := map[string]Result{
		// 3x slowdowns across the board; only the kernel-speed names
		// may fail, the rest stay host-noise.
		"BenchmarkKernelSchedule": nsRes("BenchmarkKernelSchedule", 300),
		"BenchmarkRandomSweep":    nsRes("BenchmarkRandomSweep", 3e9),
		"BenchmarkFleet1000":      nsRes("BenchmarkFleet1000", 15e9),
		"BenchmarkDBLoad":         nsRes("BenchmarkDBLoad", 300),
	}
	failures := DiffWallclock(oldSet, newSet, 0.5)
	if len(failures) != 3 {
		t.Fatalf("failures = %v, want the three kernel-speed benchmarks", failures)
	}
	joined := strings.Join(failures, "\n")
	for _, want := range []string{"BenchmarkKernelSchedule", "BenchmarkRandomSweep", "BenchmarkFleet1000"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("failures missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "BenchmarkDBLoad") {
		t.Fatalf("non-kernel benchmark gated on wall-clock:\n%s", joined)
	}
}

func TestWallclockPolarity(t *testing.T) {
	oldSet := map[string]Result{"BenchmarkKernelSchedule": nsRes("BenchmarkKernelSchedule", 300)}
	// A speedup must never fail: ns/op is lower-better.
	newSet := map[string]Result{"BenchmarkKernelSchedule": nsRes("BenchmarkKernelSchedule", 100)}
	if failures := DiffWallclock(oldSet, newSet, 0.5); len(failures) != 0 {
		t.Fatalf("speedup flagged: %v", failures)
	}
	// Within-threshold drift passes, beyond-threshold slowdown fails.
	newSet["BenchmarkKernelSchedule"] = nsRes("BenchmarkKernelSchedule", 420)
	if failures := DiffWallclock(oldSet, newSet, 0.5); len(failures) != 0 {
		t.Fatalf("within-threshold drift flagged: %v", failures)
	}
	newSet["BenchmarkKernelSchedule"] = nsRes("BenchmarkKernelSchedule", 500)
	if failures := DiffWallclock(oldSet, newSet, 0.5); len(failures) != 1 {
		t.Fatalf("slowdown not flagged: %v", failures)
	}
}

func TestWallclockSkipsMissingAndZero(t *testing.T) {
	oldSet := map[string]Result{
		"BenchmarkKernelSchedule": nsRes("BenchmarkKernelSchedule", 0), // no baseline
		"BenchmarkKernelGone":     nsRes("BenchmarkKernelGone", 100),   // vanished
	}
	newSet := map[string]Result{
		"BenchmarkKernelSchedule": nsRes("BenchmarkKernelSchedule", 500),
		"BenchmarkKernelNew":      nsRes("BenchmarkKernelNew", 100), // added this PR
	}
	if failures := DiffWallclock(oldSet, newSet, 0.5); len(failures) != 0 {
		t.Fatalf("membership changes or zero baselines must not fail: %v", failures)
	}
}

// The kernel benchmarks report host speed as events/s: -wallclock gates it
// at its own threshold, and the simulated-metric gate leaves it alone.
func TestHostRateGatedAtWallclockThreshold(t *testing.T) {
	rate := func(v float64) map[string]Result {
		return map[string]Result{"BenchmarkKernelFleetHandoff": res("BenchmarkKernelFleetHandoff",
			map[string]float64{"events/s": v})}
	}
	oldSet := rate(1e6)
	if failures, _ := Diff(oldSet, rate(0.1e6), 0.15); len(failures) != 0 {
		t.Fatalf("simulated-metric gate flagged host speed: %v", failures)
	}
	if failures := DiffWallclock(oldSet, rate(0.6e6), 0.5); len(failures) != 0 {
		t.Fatalf("40%% drop flagged at a 50%% threshold: %v", failures)
	}
	if failures := DiffWallclock(oldSet, rate(5e6), 0.5); len(failures) != 0 {
		t.Fatalf("speedup flagged: %v", failures)
	}
	failures := DiffWallclock(oldSet, rate(0.4e6), 0.5)
	if len(failures) != 1 || !strings.Contains(failures[0], "events/s regressed 60.0%") {
		t.Fatalf("60%% drop: failures = %v", failures)
	}
}
