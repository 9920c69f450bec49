// Command nfsbench regenerates the paper's evaluation artifacts and the
// studies beyond it, one experiment per table or figure:
//
//	nfsbench [-quick] [-workers N] <experiment>|all
//
// `nfsbench -h` lists the experiments; the list is generated from the
// experiment registry in internal/experiments, so it cannot drift from
// what the command runs. DESIGN.md §4 maps each experiment to the paper.
// -quick reduces the Figure 1/7 file-size grid.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

var (
	quick   = flag.Bool("quick", false, "use a reduced file-size grid for fig1/fig7 sweeps")
	workers = flag.Int("workers", 0, "worker-pool size for grid-shaped experiments (0 = one per CPU); results are identical for every value")
)

func main() {
	flag.Usage = usage
	flag.Parse()
	experiments.Workers = *workers
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	name := flag.Arg(0)
	if name == "all" {
		writeAll(os.Stdout, *quick)
		return
	}
	for _, e := range experiments.Registry {
		if e.Name == name {
			fmt.Println(e.Output(*quick))
			return
		}
	}
	fmt.Fprintf(os.Stderr, "nfsbench: unknown experiment %q\n\n", name)
	usage()
	os.Exit(2)
}

// writeAll runs every experiment in order, each under a header line.
func writeAll(w io.Writer, quick bool) {
	for _, e := range experiments.Registry {
		fmt.Fprintf(w, "== %s: %s ==\n", e.Name, e.Desc)
		fmt.Fprintln(w, e.Output(quick))
	}
}

func usage() {
	width := len("all")
	for _, e := range experiments.Registry {
		width = max(width, len(e.Name))
	}
	fmt.Fprintf(os.Stderr, "usage: nfsbench [-quick] [-workers N] <experiment>\n\nexperiments:\n")
	for _, e := range experiments.Registry {
		fmt.Fprintf(os.Stderr, "  %-*s %s\n", width, e.Name, e.Desc)
	}
	fmt.Fprintf(os.Stderr, "  %-*s run every experiment\n", width, "all")
	flag.PrintDefaults()
}
