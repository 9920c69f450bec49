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
// See docs/experiments.md for the axis semantics and output schema.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bonnie"
	"repro/internal/chaos"
	"repro/internal/harness"
	"repro/internal/rpcsim"
)

var (
	servers = flag.String("servers", "filer", "comma list of servers: filer, linux, slow100, local")
	configs = flag.String("configs", "stock", "comma list of client configs: stock, nolimits, hash, enhanced")
	sizes   = flag.String("sizes", "40", "file sizes in MB: comma list (25,100) or range lo..hi:step (25..450:25)")
	wsizes  = flag.String("wsizes", "", "comma list of wsize bytes (multiples of 4096; default: each config's own)")
	cpus    = flag.String("cpus", "", "comma list of client CPU counts (default 2)")
	clients = flag.String("clients", "", "comma list of concurrent client machines per run, e.g. 1,2,4,8 (default 1)")
	caches  = flag.String("cache", "", "comma list of page-cache limits in MB (default: the 2.4.4 budget)")
	jumbo   = flag.String("jumbo", "off", "jumbo frames: off, on, or both (an axis)")
	trans   = flag.String("transport", "udp", "comma list of RPC transports: udp, tcp")
	loss    = flag.String("loss", "0", "comma list of per-fragment drop probabilities, e.g. 0,0.01,0.05")
	workld  = flag.String("workload", "write", "comma list of workloads: write, rewrite, read, mixed, randread, randwrite, db, zipf, shared")
	files   = flag.String("files", "", "comma list of zipf file populations, e.g. 100,1000 (default 100)")
	zipfS   = flag.String("zipf-s", "", "comma list of zipf skew exponents, e.g. 0.8,1.2,uniform (default 1.2)")
	opMix   = flag.String("opmix", "", "zipf op mix as create/write/read/stat/remove percentages, e.g. 10/30/40/15/5 (not an axis)")
	acTime  = flag.String("actimeout", "", "comma list of attribute-cache windows: off, default, or durations like 3s,60s")
	shared  = flag.String("shared", "", "comma list of shared-workload writer percentages, e.g. 25,50,75 (default 50)")
	readLag = flag.Duration("readlag", 0, "shared-workload pause between reader passes (e.g. 5ms; not an axis)")
	consist = flag.String("consistency", "", "comma list of cache-consistency modes: ttl, strict, noac")
	fsyncEv = flag.Int("fsync-every", 0, "flush (group commit) every N chunks during the I/O phase; 0 = never (db defaults to 32; not an axis)")
	jitter  = flag.Duration("netjitter", 0, "max extra random delivery delay per datagram (e.g. 200us; not an axis)")
	seed    = flag.Int64("seed", 1, "base simulation seed")
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

// parse parses the value of flag -name, keeping the first error in
// *err, prefixed with the flag's name.
func parse[T any](err *error, name, spec string, p func(string) (T, error)) T {
	v, e := p(spec)
	if e != nil && *err == nil {
		*err = fmt.Errorf("-%s: %w", name, e)
	}
	return v
}

// list parses the comma-list axis flag -name with an element parser.
func list[T any](err *error, name, spec string, elem func(string) (T, error)) []T {
	return parse(err, name, spec, func(s string) ([]T, error) { return harness.ParseList(s, elem) })
}

// cacheBytes parses one -cache element, in megabytes.
func cacheBytes(s string) (int64, error) {
	mb, err := harness.PositiveInt(s)
	return int64(mb) << 20, err
}

// jumboAxis maps -jumbo to the Jumbo axis.
func jumboAxis(s string) ([]bool, error) {
	switch s {
	case "off":
		return nil, nil
	case "on":
		return []bool{true}, nil
	case "both":
		return []bool{false, true}, nil
	}
	return nil, fmt.Errorf("must be off, on, or both")
}

// buildGrid declares the grid the flags describe, one line per axis
// flag; the error names the first bad flag.
func buildGrid() (g harness.Grid, err error) {
	g.Servers = list(&err, "servers", *servers, harness.ServerByName)
	g.Configs = list(&err, "configs", *configs, harness.ConfigByName)
	g.FileSizesMB = parse(&err, "sizes", *sizes, harness.ParseSizes)
	g.WSizes = list(&err, "wsizes", *wsizes, harness.WSize)
	g.ClientCPUs = list(&err, "cpus", *cpus, harness.PositiveInt)
	g.Clients = list(&err, "clients", *clients, harness.PositiveInt)
	g.CacheLimits = list(&err, "cache", *caches, cacheBytes)
	g.Jumbo = parse(&err, "jumbo", *jumbo, jumboAxis)
	g.Transports = list(&err, "transport", *trans, rpcsim.ParseTransport)
	g.LossRates = list(&err, "loss", *loss, harness.LossRate)
	g.Workloads = list(&err, "workload", *workld, bonnie.ParseWorkload)
	g.FileCounts = list(&err, "files", *files, harness.PositiveInt)
	g.ZipfSs = list(&err, "zipf-s", *zipfS, harness.ZipfS)
	g.AcTimeouts = list(&err, "actimeout", *acTime, harness.AcTimeout)
	g.Sharings = list(&err, "shared", *shared, harness.Sharing)
	g.Consistencies = list(&err, "consistency", *consist, harness.ConsistencyByName)
	if *opMix != "" {
		g.Mix = parse(&err, "opmix", *opMix, bonnie.ParseOpMix)
	}
	switch {
	case err != nil:
		return g, err
	case *readLag < 0:
		return g, fmt.Errorf("-readlag must be non-negative")
	case *fsyncEv < 0:
		return g, fmt.Errorf("-fsync-every must be non-negative")
	case *jitter < 0:
		return g, fmt.Errorf("-netjitter must be non-negative")
	case *seed <= 0:
		return g, fmt.Errorf("-seed must be positive")
	case *repeats < 1:
		return g, fmt.Errorf("-repeats must be >= 1")
	}
	g.ReadLag = *readLag
	g.FsyncEvery = *fsyncEv
	g.NetJitter = *jitter
	g.Seeds = []int64{*seed}
	g.Repeats = *repeats
	g.SkipFlushClose = !*full
	return g, nil
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
		runScenarioFile(*scnFile, *workers, *quiet)
		return
	}
	render := renderersFor(*format)
	g, err := buildGrid()
	if err != nil {
		fatalf("%v", err)
	}
	scenarios := g.Expand()
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
