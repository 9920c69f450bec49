// Command nfstrace dumps the raw per-call latency traces behind Figures
// 2, 3 and 4 as CSV (call index, latency in µs), suitable for feeding
// straight into a plotting tool:
//
//	nfstrace fig2 > fig2.csv
//	nfstrace fig3 > fig3.csv
//	nfstrace fig4 > fig4.csv
//
// A custom run traces the one cell that nfssweep's axis flags describe,
// on any workload the benchmark supports:
//
//	nfstrace -servers linux -configs stock -sizes 40 custom
//	nfstrace -configs enhanced -workload read -sizes 40 custom
//	nfstrace -configs stock -workload randwrite -sizes 40 custom
//
// The read shorthand traces the sequential-read workload on the
// enhanced client against the filer (per-call read() latency, readahead
// visible as the flat stretches between batch-boundary stalls):
//
//	nfstrace read > read.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/experiments"
	"repro/internal/harness"
)

// axisGrid builds the grid the axis flags describe; harness.Axes
// declares those flags.
var axisGrid = harness.RegisterAxes(flag.CommandLine)

// subcommands lists every trace this command can emit, in display order.
var subcommands = []string{"fig2", "fig3", "fig4", "custom", "read"}

// traceCSV produces the named trace's two-column CSV, or an error for an
// unknown name. Separated from main so tests can drive it directly.
func traceCSV(name string) (string, error) {
	switch name {
	case "fig2":
		return experiments.Fig2().Result.Trace.CSV(), nil
	case "fig3":
		return experiments.Fig3().Result.Trace.CSV(), nil
	case "fig4":
		return experiments.Fig4().Result.Trace.CSV(), nil
	case "custom", "read":
		g, err := axisGrid()
		if err != nil {
			return "", err
		}
		if name == "read" {
			enhanced, _ := harness.ConfigByName("enhanced") // a canonical name, so no error
			g.Servers = []nfssim.ServerKind{nfssim.ServerFiler}
			g.Configs = []harness.ClientConfig{enhanced}
			g.Workloads = []bonnie.Workload{bonnie.WorkloadRead}
		}
		res, err := custom(g)
		if err != nil {
			return "", err
		}
		return res.Trace.CSV(), nil
	}
	return "", fmt.Errorf("unknown trace %q", name)
}

// usageLine names every subcommand, so -h and bad invocations always
// show the full set.
func usageLine() string {
	return "usage: nfstrace [flags] {" + strings.Join(subcommands, "|") + "}"
}

func usage() {
	fmt.Fprintln(os.Stderr, usageLine())
	flag.PrintDefaults()
}

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	out, err := traceCSV(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "nfstrace: %v\n", err)
		os.Exit(2)
	}
	fmt.Print(out)
}

// custom runs g's one cell, write phase only, and returns its result.
func custom(g harness.Grid) (harness.Result, error) {
	g.SkipFlushClose = true
	g.TimeLimit = time.Hour
	cells := g.Expand()
	if len(cells) != 1 {
		return harness.Result{}, fmt.Errorf("custom traces one cell, and the axis flags describe %d", len(cells))
	}
	if err := cells[0].Check(); err != nil {
		return harness.Result{}, err
	}
	return harness.RunScenario(cells[0]), nil
}
