// Command nfssweep runs arbitrary scenario sweeps over the simulator:
// the cross-product of the axis flags below is expanded into scenarios,
// executed across a worker pool (one private test bed per scenario), and
// reported as per-run results plus per-cell mean/stddev summaries.
// Output is deterministic: the same grid and seeds produce byte-identical
// results regardless of -workers.
//
// Examples:
//
//	nfssweep -servers filer,linux,local -configs stock -sizes 25..450:25
//	    the Figure 1 grid
//	nfssweep -servers filer -configs stock,nolimits,hash,enhanced \
//	    -sizes 40 -repeats 5 -format csv -out results/
//	    the paper's fix progression with error bars
//	nfssweep -servers filer -configs enhanced -sizes 100 -cpus 1,2,4 \
//	    -jumbo both -full
//	    a sweep the paper never ran
//	nfssweep -servers filer,linux -configs stock,enhanced -clients 1,2,4,8
//	    multi-client scale-out: N client machines against one server
//	nfssweep -transport udp,tcp -loss 0,0.01,0.05 -sizes 25
//	    lossy network: UDP loss amplification vs TCP segment recovery
//	nfssweep -workload write,rewrite,read,mixed -servers filer,linux -sizes 25
//	    the full I/O space: write-behind, readahead, and mixed pressure
//	nfssweep -workload randread,randwrite,db -configs stock,hash -sizes 25
//	    random-access and durability: the database-style patterns that
//	    stress the pending-request lookup (fix 2) and group commit
//	nfssweep -workload randwrite -fsync-every 50 -full -sizes 25
//	    group commit on any write workload: flush every 50 chunks
//	nfssweep -workload zipf -files 100,1000 -actimeout off,default -sizes 4
//	    the many-file metadata workload: Zipfian opens/writes/reads/
//	    stats/removes, with and without the client attribute cache
//	nfssweep -workload shared -clients 4 -shared 25,50,75 \
//	    -consistency ttl,strict,noac -sizes 4
//	    cache coherence: writers and readers on one shared file, the
//	    staleness-vs-throughput trade-off across consistency modes
//
// The axis flags are harness.Axes. Every cell is checked against the
// axes' rules before any runs: a value that cannot apply to a cell, such
// as -transport tcp on -servers local, exits 2 with an error naming both
// flags. See docs/experiments.md for the axis semantics and output
// schema.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/chaos"
	"repro/internal/harness"
)

// axisGrid builds the grid the axis flags describe; harness.Axes
// declares those flags.
var axisGrid = harness.RegisterAxes(flag.CommandLine)

var (
	repeats = flag.Int("repeats", 1, "repeats per cell with seeds seed, seed+1, ...")
	workers = flag.Int("workers", 0, "worker-pool size (0 = one per CPU); does not change results")
	scnFile = flag.String("scenario", "", "run a chaos scenario file (YAML or JSON) instead of a grid sweep; see docs/experiments.md")
	format  = flag.String("format", "table", "output format: csv, json, or table")
	outDir  = flag.String("out", "", "directory to write results.<format> and summary.<format> (default: stdout only)")
	full    = flag.Bool("full", false, "run the full write+flush+close sequence instead of the write phase only")
	quiet   = flag.Bool("quiet", false, "suppress per-run progress on stderr")
)

func fatalf(f string, args ...any) {
	fmt.Fprintf(os.Stderr, "nfssweep: "+f+"\n", args...)
	os.Exit(2)
}

// buildGrid declares the grid the flags describe; the error names the
// first bad flag.
func buildGrid() (harness.Grid, error) {
	g, err := axisGrid()
	switch {
	case err != nil:
		return g, err
	case *repeats < 1:
		return g, fmt.Errorf("-repeats must be >= 1")
	}
	g.Repeats = *repeats
	g.SkipFlushClose = !*full
	return g, nil
}

// checkScenarioAlone rejects an axis flag set on fs beside -scenario:
// the file's fleet declares the test bed, so the flag would be ignored.
func checkScenarioAlone(fs *flag.FlagSet) (err error) {
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.ContainsFunc(harness.Axes, func(a harness.Axis) bool { return a.Flag == f.Name }) {
			err = fmt.Errorf("-%s cannot be combined with -scenario (the file's fleet sets the test bed)", f.Name)
		}
	})
	return err
}

type renderers struct {
	results    func([]harness.Result) string
	aggregates func([]harness.Aggregate) string
	ext        string
}

// renderersFor resolves -format once, before the sweep runs, so a bad
// value fails fast instead of after minutes of simulation.
func renderersFor(format string) renderers {
	switch format {
	case "csv":
		return renderers{harness.ResultsCSV, harness.AggregatesCSV, "csv"}
	case "json":
		return renderers{harness.ResultsJSON, harness.AggregatesJSON, "json"}
	case "table":
		return renderers{harness.ResultsTable, harness.AggregatesTable, "txt"}
	}
	fatalf("-format must be csv, json, or table")
	panic("unreachable")
}

// runScenarioFile executes a chaos scenario file and prints each report.
// Exit status 1 when any scenario fails an assertion or errors
// unexpectedly. Output is byte-identical at any -workers value: each
// scenario is one deterministic simulation, and reports print in file
// order.
func runScenarioFile(path string, workers int, quiet bool) {
	scs, err := chaos.Load(path)
	if err != nil {
		fatalf("%v", err)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "nfssweep: %d chaos scenarios from %s\n", len(scs), path)
	}
	failed := false
	for _, rep := range chaos.RunAll(scs, workers) {
		fmt.Print(rep.Render())
		if rep.Failed {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func main() {
	flag.Parse()
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %v (axes are flags; see -h)", flag.Args())
	}
	if *scnFile != "" {
		if err := checkScenarioAlone(flag.CommandLine); err != nil {
			fatalf("%v", err)
		}
		runScenarioFile(*scnFile, *workers, *quiet)
		return
	}
	render := renderersFor(*format)
	g, err := buildGrid()
	if err != nil {
		fatalf("%v", err)
	}
	scenarios := g.Expand()
	for _, sc := range scenarios {
		if err := sc.Check(); err != nil {
			fatalf("%v", err)
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "nfssweep: %d scenarios (%d cells x %d repeats)\n",
			len(scenarios), len(scenarios) / *repeats, *repeats)
	}
	ran := 0
	runner := harness.Runner{Workers: *workers}
	if !*quiet {
		runner.OnResult = func(r harness.Result) {
			ran++
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s: %.1f MB/s\n", ran, len(scenarios), r.Name, r.WriteMBps)
		}
	}
	results := runner.Run(scenarios)
	aggs := harness.AggregateResults(results)
	resOut, sumOut := render.results(results), render.aggregates(aggs)

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatalf("%v", err)
		}
		resPath := filepath.Join(*outDir, "results."+render.ext)
		sumPath := filepath.Join(*outDir, "summary."+render.ext)
		if err := os.WriteFile(resPath, []byte(resOut), 0o644); err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(sumPath, []byte(sumOut), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "nfssweep: wrote %s and %s\n", resPath, sumPath)
	}
	fmt.Print(resOut)
	if *repeats > 1 {
		fmt.Println("\n-- per-cell summary over repeats --")
		fmt.Print(sumOut)
	}
}
