// Command bench is the simulator's host-time benchmark. It runs fixed
// workloads of scenarios through the harness's public entry points in a
// closed loop, checks every op's output, and reports the host time,
// allocation and memory each workload costs; a traced run adds where
// that host time goes, package by package.
//
// From the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|DIR] [-json FILE]
//	bash bench/run.sh compare [-benchmark BENCHMARK.json] -base A.json... -head B.json...
//
// From the bench directory, go run . takes the same arguments, and
// go run . -update-digests recaptures testdata/digests_seed1.txt.
// bench/README.md describes the workloads, the metrics and the recipes.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// gomaxprocs pins each workload process to one P. The sim kernel runs
// one simulated process at a time, passing a baton between goroutines;
// with two Ps every pass between goroutines on different Ps wakes the
// other CPU, and on a shared VM host the cost of that wakeup varies by
// ±20% from run to run, wider than the bounds. On one P the baton moves
// through the scheduler's run queue instead, and the garbage collector's
// work lands inside the op that caused it.
const gomaxprocs = 1

// defaultTraceDir receives traced-run files for -trace 1.
var defaultTraceDir = filepath.Join(".bench_build", "trace")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is one workload's report in the form the last output line
// carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what -json writes and compare reads.
type report struct {
	Seed      int64             `json:"seed"`
	Workloads map[string]result `json:"workloads"`
}

// run is the testable entry point; it returns the exit code: 0 when every
// op passed, 1 when an op failed or the run could not complete, 2 on bad
// arguments.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: every workload, one child process each, one at a time)")
	seed := fs.Int64("seed", digestSeed, "base seed: op i runs with seed+i; recorded digests are checked at seed 1")
	seconds := fs.Int("seconds", refSeconds, "run length on the reference host; sets each workload's op count")
	traceArg := fs.String("trace", "0", "0: untraced, end-to-end metrics; 1: an untraced run, then a traced run reporting per-layer metrics, with its files under "+defaultTraceDir+"; DIR: the same, files under DIR")
	jsonPath := fs.String("json", "", "also write the per-workload results to this file (compare's input)")
	update := fs.Bool("update-digests", false, "rerun every workload's ops at seed 1 and rewrite "+digestPath+" (for changes that set out to change the model)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	if *update {
		if *name != "" || *seed != digestSeed {
			fmt.Fprintln(stderr, "bench: -update-digests recaptures every workload at seed 1")
			return 2
		}
		if err := updateDigests(*seconds); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	traceDir := *traceArg
	switch traceDir {
	case "0":
		traceDir = ""
	case "1":
		traceDir = defaultTraceDir
	}

	childArgs := []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.Itoa(*seconds), "-trace"}
	var results map[string]result
	var last result
	if *name != "" {
		wl, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		// A traced run compares its timed ops with an untraced run of the
		// same ops. Each runs in a fresh process: the simulator leaks every
		// op's parked processes, and a heap grown by one pass would make
		// the next pass's garbage collections rarer and its ops faster.
		var untraced result
		if traceDir != "" {
			if untraced, err = runChild(wl.name, append(childArgs, "0"), stdout, stderr); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		runtime.GOMAXPROCS(gomaxprocs)
		out, err := measure(wl, *seed, *seconds, traceDir)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", wl.name, err)
			return 1
		}
		if traceDir != "" {
			out.attempted += untraced.Attempted
			out.failed += untraced.Failed
			out.metrics["trace_overhead_pct"] = 100 * (out.metrics["op_ms_p50"]/untraced.Metrics["op_ms_p50"].Value - 1)
		}
		printOutcome(stdout, wl.name, *seed, traceDir, out)
		last = out.result(traceDir != "")
		results = map[string]result{wl.name: last}
	} else {
		results = make(map[string]result, len(workloads))
		last = result{Correct: true, Metrics: map[string]metricValue{}}
		for _, wl := range workloads {
			r, err := runChild(wl.name, append(childArgs, *traceArg), stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
			results[wl.name] = r
			last.Correct = last.Correct && r.Correct
			last.Attempted += r.Attempted
			last.Failed += r.Failed
			for k, v := range r.Metrics {
				last.Metrics[wl.name+"."+k] = v
			}
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(report{Seed: *seed, Workloads: results}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !last.Correct {
		return 1
	}
	return 0
}

// result selects the metrics the last output line carries: the
// end-to-end metrics untraced, the per-layer ones traced.
func (o outcome) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{o.metrics[d.name], d.unit}
	}
	return r
}

// runChild runs one workload in a child process, forwarding its output,
// and returns the result its last line carries.
func runChild(name string, args []string, stdout, stderr io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, append([]string{"-workload", name}, args...)...)
	cmd.Stdout = io.MultiWriter(stdout, &out)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return result{}, fmt.Errorf("%s: %w", name, runErr)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return result{}, fmt.Errorf("%s: no result (%v)", name, runErr)
	}
	return r, nil
}

// printOutcome prints a workload's run for people: op counts, the output
// check, then every metric with its unit: the end-to-end ones untraced,
// the per-layer ones traced.
func printOutcome(w io.Writer, name string, seed int64, traceDir string, o outcome) {
	mode := "untraced"
	if traceDir != "" {
		mode = "traced, files in " + traceDir
	}
	fmt.Fprintf(w, "%s: %d ops, seed %d, GOMAXPROCS %d, %s\n", name, o.ops, seed, runtime.GOMAXPROCS(0), mode)
	if o.digestsChecked < 0 {
		fmt.Fprintf(w, "  digest: skipped (seed %d)\n", seed)
	} else {
		fmt.Fprintf(w, "  digest: %d of %d ops checked, %d mismatched\n", o.digestsChecked, o.ops, o.digestMismatches)
	}
	fmt.Fprintf(w, "  fail_ratio %g (%d failed / %d attempted)\n", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	for _, f := range o.failures {
		fmt.Fprintln(w, "    "+f)
	}
	fmt.Fprintf(w, "  host times in reference-host units: calibration unit %.3f ms here, %.3f ms on the reference host\n",
		o.calMs, float64(calRef)/1e6)
	defs := endToEnd
	if traceDir == "" {
		fmt.Fprintf(w, "  op time tail: p%g %.6g ms (n=%d)\n", 100*o.tailP, o.tailMs, o.ops)
	} else {
		fmt.Fprintf(w, "  CPU profile: %d samples\n", o.samples)
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, o.metrics[d.name], d.unit)
	}
}

// updateDigests reruns every workload's ops at the digest seed and
// rewrites the digest file. Any failing op aborts the recapture.
func updateDigests(seconds int) error {
	var b strings.Builder
	for _, wl := range workloads {
		cells := wl.cells()
		n := wl.opCount(seconds, len(cells))
		for i := 0; i < n; i++ {
			sc := cells[i%len(cells)]
			sc.Seed = digestSeed + int64(i)
			rec, res := runOp(sc, nil)
			if rec.err != nil {
				return fmt.Errorf("%s op %d (%s): %w", wl.name, i, sc.Name(), rec.err)
			}
			b.WriteString(formatDigest(wl.name, i, res))
		}
	}
	return os.WriteFile(digestPath, []byte(b.String()), 0o644)
}
