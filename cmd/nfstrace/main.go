// Command nfstrace dumps the raw per-call latency traces behind Figures
// 2, 3 and 4 as CSV (call index, latency in µs), suitable for feeding
// straight into a plotting tool:
//
//	nfstrace fig2 > fig2.csv
//	nfstrace fig3 > fig3.csv
//	nfstrace fig4 > fig4.csv
//
// A custom run can be assembled with flags, driving any workload the
// benchmark supports (write, rewrite, read, mixed, randread, randwrite,
// db):
//
//	nfstrace -server linux -client stock -mb 40 custom
//	nfstrace -client enhanced -workload read -mb 40 custom
//	nfstrace -client stock -workload randwrite -mb 40 custom
//
// The read shorthand traces the sequential-read workload on the
// enhanced client (per-call read() latency, readahead visible as the
// flat stretches between batch-boundary stalls):
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

var (
	serverFlag   = flag.String("server", "filer", "server: filer, linux, slow100, local")
	clientFlag   = flag.String("client", "stock", "client: stock, nolimits, hash, enhanced")
	mbFlag       = flag.Int("mb", 40, "file size in MB")
	workloadFlag = flag.String("workload", "write", "workload for custom runs: write, rewrite, read, mixed, randread, randwrite, db")
)

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
	case "custom":
		res, err := custom(*serverFlag, *clientFlag, *workloadFlag, *mbFlag)
		if err != nil {
			return "", err
		}
		return res.Trace.CSV(), nil
	case "read":
		res, err := custom("filer", "enhanced", "read", *mbFlag)
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

// custom runs one write-phase scenario named by server, client
// configuration and workload on the harness, returning its result.
func custom(server, client, workload string, mb int) (harness.Result, error) {
	srv, err := harness.ServerByName(server)
	if err != nil {
		return harness.Result{}, err
	}
	cfg, err := harness.ConfigByName(client)
	if err != nil {
		return harness.Result{}, err
	}
	wl, err := bonnie.ParseWorkload(workload)
	if err != nil {
		return harness.Result{}, err
	}
	return harness.RunScenario(harness.Grid{
		Servers:        []nfssim.ServerKind{srv},
		Configs:        []harness.ClientConfig{cfg},
		FileSizesMB:    []int{mb},
		Workloads:      []bonnie.Workload{wl},
		SkipFlushClose: true,
		TimeLimit:      time.Hour,
	}.Expand()[0]), nil
}
