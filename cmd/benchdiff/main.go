// Command benchdiff gates benchmark regressions: it compares two
// benchjson artifacts and fails when any gated metric regressed by more
// than the threshold:
//
//	benchdiff -old BENCH_PR5.json -new BENCH_PR6.json -threshold 0.15
//
// The simulator's benchmark metrics are deterministic quantities from
// the simulated clock (throughputs, latencies, RPC counts), so they are
// stable across CI hosts; only those metrics are gated. Wall-clock
// ns/op and iteration counts vary with the runner and are ignored —
// except under -wallclock, which additionally gates ns_per_op on the
// kernel-speed benchmarks (BenchmarkKernel*, BenchmarkRandomSweep,
// BenchmarkFleet1000) and every host-speed rate (events/s) at its own,
// looser threshold:
//
//	benchdiff -old BENCH_PR7.json -new BENCH_PR8.json -threshold 0.15 -wallclock 0.5
//
// Those benchmarks exist to keep the simulation kernel fast enough for
// thousand-client fleets, so a halving of their speed fails the gate
// even though the number is host-dependent; both artifacts come from
// the same runner class in CI.
//
// Gating polarity comes from the metric unit: MB/s- and tx/s-style
// units regress when they fall, while -us/-ms/ns-per-call latencies
// regress when they rise. The kernel benchmarks' events/s is a rate too,
// but of the host, so only -wallclock gates it. Units naming neither a
// rate nor a latency (spike counts, call positions) are compared for
// information only.
// Benchmarks present on only one side are reported but never fatal, so
// adding a benchmark in a PR does not break the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"
)

// Result mirrors benchjson's output schema.
type Result struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type polarity int

const (
	ungated      polarity = iota // informational only
	higherBetter                 // throughput-style: regression = drop
	lowerBetter                  // latency-style: regression = rise
	hostRate                     // host-speed throughput: gated by -wallclock only
)

// classify maps a metric unit to its gating polarity.
func classify(unit string) polarity {
	switch {
	case strings.Contains(unit, "events/s"):
		return hostRate
	case strings.Contains(unit, "MB/s"), strings.Contains(unit, "tx/s"),
		strings.Contains(unit, "hit-rate"):
		return higherBetter
	case strings.HasSuffix(unit, "-us"), strings.HasSuffix(unit, "-ms"),
		strings.Contains(unit, "ns/call"):
		return lowerBetter
	}
	return ungated
}

// regression returns the fractional regression of new vs old under the
// unit's polarity: positive means worse, zero or negative means fine.
// Ungated and host-rate units and zero baselines never regress here.
func regression(unit string, oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	switch classify(unit) {
	case higherBetter:
		return (oldV - newV) / oldV
	case lowerBetter:
		return (newV - oldV) / oldV
	}
	return 0
}

func load(path string) (map[string]Result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []Result
	if err := json.Unmarshal(raw, &list); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	byName := make(map[string]Result, len(list))
	for _, r := range list {
		byName[r.Name] = r
	}
	return byName, nil
}

// Diff compares every metric shared by the two artifacts and returns
// human-readable reports of the regressions beyond the threshold plus
// the notes (new/vanished benchmarks, ungated drifts).
func Diff(oldSet, newSet map[string]Result, threshold float64) (failures, notes []string) {
	names := make([]string, 0, len(oldSet))
	for name := range oldSet {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		oldR := oldSet[name]
		newR, ok := newSet[name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: only in old artifact", name))
			continue
		}
		units := make([]string, 0, len(oldR.Metrics))
		for unit := range oldR.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			oldV := oldR.Metrics[unit]
			newV, ok := newR.Metrics[unit]
			if !ok {
				notes = append(notes, fmt.Sprintf("%s: metric %s vanished", name, unit))
				continue
			}
			if reg := regression(unit, oldV, newV); reg > threshold {
				failures = append(failures, fmt.Sprintf("%s: %s regressed %.1f%% (%.3g -> %.3g)",
					name, unit, 100*reg, oldV, newV))
			}
		}
	}
	for name := range newSet {
		if _, ok := oldSet[name]; !ok {
			notes = append(notes, fmt.Sprintf("%s: new benchmark", name))
		}
	}
	sort.Strings(notes)
	return failures, notes
}

// wallclockGated reports whether a benchmark's wall-clock ns/op is
// kernel speed we gate: the sim microbenchmarks and the two whole-sweep
// workloads the kernel rework is judged by.
func wallclockGated(name string) bool {
	return strings.HasPrefix(name, "BenchmarkKernel") ||
		strings.HasPrefix(name, "BenchmarkRandomSweep") ||
		strings.HasPrefix(name, "BenchmarkFleet1000")
}

// DiffWallclock gates host speed: ns_per_op of the wallclockGated
// benchmarks (lower is better) and every host-rate metric (higher is
// better). Only slowdowns beyond the threshold fail. Benchmarks and
// metrics missing from either artifact are skipped (reported by Diff as
// notes already).
func DiffWallclock(oldSet, newSet map[string]Result, threshold float64) (failures []string) {
	names := make([]string, 0, len(oldSet))
	for name := range oldSet {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		oldR := oldSet[name]
		newR, ok := newSet[name]
		if !ok {
			continue
		}
		if wallclockGated(name) && oldR.NsPerOp != 0 {
			if reg := (newR.NsPerOp - oldR.NsPerOp) / oldR.NsPerOp; reg > threshold {
				failures = append(failures, fmt.Sprintf("%s: wall-clock regressed %.1f%% (%.3gns -> %.3gns)",
					name, 100*reg, oldR.NsPerOp, newR.NsPerOp))
			}
		}
		for _, unit := range slices.Sorted(maps.Keys(oldR.Metrics)) {
			if classify(unit) != hostRate {
				continue
			}
			oldV := oldR.Metrics[unit]
			newV, ok := newR.Metrics[unit]
			if !ok || oldV == 0 {
				continue
			}
			if reg := (oldV - newV) / oldV; reg > threshold {
				failures = append(failures, fmt.Sprintf("%s: %s regressed %.1f%% (%.3g -> %.3g)",
					name, unit, 100*reg, oldV, newV))
			}
		}
	}
	return failures
}

func main() {
	oldPath := flag.String("old", "", "baseline benchjson artifact")
	newPath := flag.String("new", "", "candidate benchjson artifact")
	threshold := flag.Float64("threshold", 0.15, "fractional regression that fails the gate")
	wallclock := flag.Float64("wallclock", 0, "if > 0, also gate the kernel-speed benchmarks' ns_per_op and every events/s rate at this looser threshold")
	flag.Parse()
	if *oldPath == "" || *newPath == "" || *threshold < 0 || *wallclock < 0 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff -old baseline.json -new candidate.json [-threshold 0.15] [-wallclock 0.5]")
		os.Exit(2)
	}
	oldSet, err := load(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newSet, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	failures, notes := Diff(oldSet, newSet, *threshold)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if *wallclock > 0 {
		failures = append(failures, DiffWallclock(oldSet, newSet, *wallclock)...)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Println("FAIL:", f)
		}
		fmt.Printf("benchdiff: %d metric(s) regressed more than %.0f%%\n", len(failures), 100**threshold)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: no gated metric regressed more than %.0f%%\n", 100**threshold)
}
