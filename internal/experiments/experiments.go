// Package experiments regenerates every table and figure in the paper's
// evaluation (§3) and the studies beyond it as one registry of specs
// (DESIGN.md §4 maps them to the paper). A table experiment is data: a
// harness grid, a title, columns formatting one harness.Result each,
// notes and a footer, rendered by Experiment.Table. Other outputs (plots,
// traces, histograms, profiles, chaos reports) supply Render. Every run
// goes through the harness except Concurrency's two writers on one
// machine, which drive bonnie directly.
package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/rpcsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vfs"
)

// Workers is the harness worker-pool size for grid experiments; 0 means
// one worker per CPU. cmd/nfsbench's -workers flag sets it. Results are
// identical for every value — only wall-clock time changes.
var Workers int

// RunGrid runs every scenario of g on the harness worker pool and returns
// the results in grid order.
func RunGrid(g harness.Grid) []harness.Result {
	return (&harness.Runner{Workers: Workers}).Run(g.Expand())
}

// Column is one table column: a header and the cell it shows for a row.
type Column[R any] struct {
	Header string
	Cell   func(R) string
}

// col formats get(row) with a fmt verb.
func col[R, T any](header, verb string, get func(R) T) Column[R] {
	return Column[R]{header, func(r R) string { return fmt.Sprintf(verb, get(r)) }}
}

// table renders rows through stats.Table, one line per row.
func table[R any](title string, cols []Column[R], rows []R) string {
	headers := make([]string, len(cols))
	for i, c := range cols {
		headers[i] = c.Header
	}
	t := stats.NewTable(title, headers...)
	for _, r := range rows {
		cells := make([]string, len(cols))
		for i, c := range cols {
			cells[i] = c.Cell(r)
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// Experiment is one nfsbench artifact.
type Experiment struct {
	Name string // the nfsbench argument
	Desc string // one line for the usage text and the `all` headers

	// Grid declares the runs; nil when Render drives its own scenarios.
	Grid *harness.Grid
	// QuickSizesMB, when set, replaces the grid's file sizes under -quick.
	QuickSizesMB []int

	// Title, Columns, Notes and Footer describe a table: one row per run
	// in grid order, then the headline comparisons (Notes gets the spec
	// for Row lookups), then the footer.
	Title   string
	Columns []Column[harness.Result]
	Notes   func(e *Experiment, rows []harness.Result) string
	Footer  string

	// Render formats the runs instead, when the output is not one table.
	Render func(rows []harness.Result) string
}

// Output runs the experiment, at the quick sizes if quick is set, and
// formats the result.
func (e *Experiment) Output(quick bool) string {
	var rows []harness.Result
	if e.Grid != nil {
		g := *e.Grid
		if quick && e.QuickSizesMB != nil {
			g.FileSizesMB = e.QuickSizesMB
		}
		rows = RunGrid(g)
	}
	if e.Render != nil {
		return e.Render(rows)
	}
	return e.Table(rows)
}

// Table renders rows as the experiment's table, notes and footer.
func (e *Experiment) Table(rows []harness.Result) string {
	out := table(e.Title, e.Columns, rows)
	if e.Notes != nil {
		out += e.Notes(e, rows)
	}
	return out + e.Footer
}

// Row returns the first row whose leading cells read keys (nil if none):
// the one lookup the notes, the tests and the benchmarks share.
func (e *Experiment) Row(rows []harness.Result, keys ...string) *harness.Result {
	for i := range rows {
		cellIs := func(key string, c Column[harness.Result]) bool { return c.Cell(rows[i]) == key }
		if slices.EqualFunc(keys, e.Columns[:len(keys)], cellIs) {
			return &rows[i]
		}
	}
	return nil
}

// driven is a registry entry that runs its own scenarios.
func driven(name, desc string, out func() string) *Experiment {
	return &Experiment{Name: name, Desc: desc, Render: func([]harness.Result) string { return out() }}
}

// Registry lists every experiment in `nfsbench all` order.
var Registry = []*Experiment{
	Fig1,
	driven("fig2", "periodic write latency spikes, stock client", func() string { return Fig2().Render() }),
	driven("fig3", "latency growth after flush removal (linear list)", func() string { return Fig3().Render() }),
	driven("fig4", "flat latency with scalable data structures", func() string { return Fig4().Render() }),
	driven("fig5", "latency histograms with the BKL held across sends", func() string { return Fig5().Render() }),
	driven("fig6", "latency histograms with the BKL released", func() string { return Fig6().Render() }),
	Table1,
	Fig7,
	Slow100,
	driven("profile", "kernel profile: hot functions and BKL wait attribution", func() string { return Profile().Render() }),
	Jumbo,
	driven("concurrent", "two writers to separate files, BKL vs no lock", func() string { return Concurrency().Render() }),
	Scaling, Fleet, Loss, Read, Random, DB, Zipf, Coherence, Chaos,
}

// configs resolves canonical client configuration names.
func configs(names ...string) []harness.ClientConfig {
	cs, err := harness.ParseList(strings.Join(names, ","), harness.ConfigByName)
	if err != nil {
		panic(err)
	}
	return cs
}

// scenario expands a one-cell grid, harness defaults on every other axis.
func scenario(srv nfssim.ServerKind, cfg string, fileMB int, skipFlushClose bool) harness.Scenario {
	return harness.Grid{Servers: []nfssim.ServerKind{srv}, Configs: configs(cfg),
		FileSizesMB: []int{fileMB}, SkipFlushClose: skipFlushClose}.Expand()[0]
}

var onFiler = []nfssim.ServerKind{nfssim.ServerFiler}

// Field getters the column lists share.
func config(r harness.Result) string     { return r.Config }
func workload(r harness.Result) string   { return r.Workload }
func writeMBps(r harness.Result) float64 { return r.WriteMBps }
func aggMBps(r harness.Result) float64   { return r.AggMBps }
func getattrs(r harness.Result) int64    { return r.GetattrRPCs }

// ReadHitRate is page-cache read hits over read lookups (0 without any).
func ReadHitRate(r harness.Result) float64 {
	if lookups := r.ReadHits + r.ReadMisses; lookups > 0 {
		return float64(r.ReadHits) / float64(lookups)
	}
	return 0
}

// TxPerSec is chunk updates per second of the I/O phase, fsyncs included.
func TxPerSec(r harness.Result) float64 {
	if r.WriteMBps <= 0 {
		return 0
	}
	elapsedSec := float64(int64(r.FileMB)<<20) / (r.WriteMBps * 1e6)
	return float64(r.Calls) / elapsedSec
}

// FsyncTime is the total virtual time spent inside group-commit fsyncs.
func FsyncTime(r harness.Result) time.Duration {
	return time.Duration(r.FsyncUs * float64(time.Microsecond))
}

// SlotWaitShare is the share of RPCs that found their client's slot table
// full and queued — the client-visible signature of server saturation.
func SlotWaitShare(r harness.Result) float64 {
	total := r.RPCsSent + r.ReadRPCs + r.CommitRPCs +
		r.LookupRPCs + r.GetattrRPCs + r.CreateRPCs + r.RemoveRPCs
	if total == 0 {
		return 0
	}
	return float64(r.SlotWaits) / float64(total)
}

// SlotWaitMeanUs is the mean queue time of an RPC that waited for a slot.
func SlotWaitMeanUs(r harness.Result) float64 {
	if r.SlotWaits == 0 {
		return 0
	}
	return r.SlotWaitUs / float64(r.SlotWaits)
}

// LossDegradation is 1 - (throughput at loss)/(throughput at loss 0) for
// one config/transport pair of the Loss rows, or -1 without a baseline.
func LossDegradation(rows []harness.Result, config, transport string, loss float64) float64 {
	var base, at float64
	for _, r := range rows {
		if r.Config != config || r.Transport != transport {
			continue
		}
		if r.Loss == 0 {
			base = r.AggMBps
		}
		if r.Loss == loss {
			at = r.AggMBps
		}
	}
	if base <= 0 {
		return -1
	}
	return 1 - at/base
}

// PaperSizesMB is the Figure 1/7 x-axis: 25–450 MB in 25 MB steps. (The
// error is dropped: ParseSizes cannot fail on this literal.)
var PaperSizesMB, _ = harness.ParseSizes("25..450:25")

// SweepSeries splits Figure 1/7 rows into the three write-phase
// throughput curves (KB/s vs MB), in plot order.
func SweepSeries(rows []harness.Result) (linux, filer, local *stats.Series) {
	linux = &stats.Series{Name: "Linux NFS server"}
	filer = &stats.Series{Name: "Netapp filer"}
	local = &stats.Series{Name: "local ext2"}
	byServer := map[string]*stats.Series{"linux": linux, "filer": filer, "local": local}
	for _, r := range rows {
		byServer[r.Server].Add(float64(r.FileMB), r.WriteKBps)
	}
	return linux, filer, local
}

// sweep is a Figure 1/7 spec: the three targets across the size axis,
// write phase only, rendered as plot data.
func sweep(name, desc, title, cfg string) *Experiment {
	return &Experiment{
		Name: name, Desc: desc,
		Grid: &harness.Grid{
			Servers:        []nfssim.ServerKind{nfssim.ServerNone, nfssim.ServerFiler, nfssim.ServerLinux},
			Configs:        configs(cfg),
			FileSizesMB:    PaperSizesMB,
			SkipFlushClose: true,
		},
		QuickSizesMB: []int{25, 100, 200, 250, 300, 450},
		Render: func(rows []harness.Result) string {
			linux, filer, local := SweepSeries(rows)
			return title + "\nwrite throughput (KB/s) vs file size (MB)\n" + stats.CSV(linux, filer, local)
		},
	}
}

// Fig1 reproduces Figure 1: the stock client's NFS write throughput is
// pinned to network/server speed at every file size, while local ext2
// writes at memory speed until RAM runs out.
var Fig1 = sweep("fig1", "local vs NFS write throughput, stock 2.4.4 client",
	"Figure 1 - Local v. NFS write throughput (stock 2.4.4 client)", "stock")

// Fig7 reproduces Figure 7: with all three fixes, NFS memory writes rival
// local ext2 until client memory runs out, and the filer holds out longest.
var Fig7 = sweep("fig7", "local vs NFS write throughput, enhanced client",
	"Figure 7 - Local v. NFS write throughput (enhanced client)", "enhanced")

// TraceResult is a Figures 2–4 dataset: one run's per-call latency trace
// plus the derived spike/growth statistics.
type TraceResult struct {
	Title  string
	Result harness.Result

	Spikes      int
	SpikePeriod float64
	MeanAll     time.Duration
	MeanBelow   time.Duration // mean excluding spikes (paper's comparison)
	SlopeNsCall float64

	// QuietGap marks Figure 4's checkpoint: a window of reduced jitter.
	QuietGapStart, QuietGapEnd int
	HasQuietGap                bool
}

// SpikeCutoff is the latency above which Figures 2–4 count a spike.
const SpikeCutoff = time.Millisecond

func newTraceResult(title string, res harness.Result) *TraceResult {
	return &TraceResult{
		Title:       title,
		Result:      res,
		Spikes:      res.Trace.CountAbove(SpikeCutoff),
		SpikePeriod: res.Trace.SpikePeriod(SpikeCutoff),
		MeanAll:     res.Trace.Summary().Mean,
		MeanBelow:   res.Trace.SummaryExcluding(SpikeCutoff).Mean,
		SlopeNsCall: res.Trace.Slope(),
	}
}

// Render formats the trace statistics (Result.Trace.CSV() is the trace).
func (r *TraceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "  calls:                %d\n", r.Result.Calls)
	fmt.Fprintf(&b, "  mean latency:         %v\n", r.MeanAll)
	fmt.Fprintf(&b, "  mean excluding >%v: %v\n", SpikeCutoff, r.MeanBelow)
	fmt.Fprintf(&b, "  spikes >%v:          %d (every ~%.0f calls)\n", SpikeCutoff, r.Spikes, r.SpikePeriod)
	fmt.Fprintf(&b, "  latency slope:        %.1f ns/call\n", r.SlopeNsCall)
	fmt.Fprintf(&b, "  max latency:          %v\n", r.Result.Trace.Summary().Max)
	fmt.Fprintf(&b, "  write throughput:     %.1f MB/s\n", r.Result.WriteMBps)
	if r.HasQuietGap {
		fmt.Fprintf(&b, "  quiet gap (checkpoint): calls %d-%d\n", r.QuietGapStart, r.QuietGapEnd)
	}
	return b.String()
}

// Fig2 reproduces Figure 2: a 40 MB run against the filer on the stock
// client, showing periodic multi-millisecond spikes roughly every
// MAX_REQUEST_SOFT/2 calls.
func Fig2() *TraceResult {
	return newTraceResult("Figure 2 - Actual write latency over time (stock 2.4.4, filer)",
		harness.RunScenario(scenario(nfssim.ServerFiler, "stock", 40, false)))
}

// Fig3 reproduces Figure 3: the same run with limit-flushing removed —
// no spikes, but latency grows as the per-inode list lengthens.
func Fig3() *TraceResult {
	return newTraceResult("Figure 3 - Actual write latency over time (no flushing, linear list)",
		harness.RunScenario(scenario(nfssim.ServerFiler, "nolimits", 100, false)))
}

// Fig4 reproduces Figure 4: with the hash table, latency stays low for
// the whole run. The prepare hook first writes a 30 MB warm-up file, so
// NVRAM is partly charged as on a repeatedly-used filer and a checkpoint
// lands mid-run: the paper's "gap of greatly reduced jitter".
func Fig4() *TraceResult {
	res := harness.RunScenarioOn(scenario(nfssim.ServerFiler, "hash", 100, true), func(tb *nfssim.Testbed) {
		bonnie.RunWorkload(tb.Sim, "warmup", tb.Machines[0].OpenSet(), bonnie.Config{FileSize: 30 << 20, TimeLimit: 10 * time.Minute})
	})
	tr := newTraceResult("Figure 4 - Actual write latency over time (scalable data structures)", res)
	tr.QuietGapStart, tr.QuietGapEnd, tr.HasQuietGap = res.Trace.QuietGap(200, 0.5)
	return tr
}

// TailCutoff is the latency from which Figures 5/6 count a write() as slow.
const TailCutoff = 90 * time.Microsecond

// HistResult is the Figures 5/6 dataset: write() latency histograms for
// the same 30 MB run against the two servers, under one lock policy.
type HistResult struct {
	Title                string
	FilerHist, LinuxHist *stats.Histogram
	Filer, Linux         stats.Summary
}

func hist(title, cfg string) *HistResult {
	r := &HistResult{
		Title:     title,
		FilerHist: stats.NewHistogram("Network Appliance F85", 30*time.Microsecond, 9),
		LinuxHist: stats.NewHistogram("Linux 2.4 NFS server", 30*time.Microsecond, 9),
	}
	filer := harness.RunScenario(scenario(nfssim.ServerFiler, cfg, 30, false)).Trace
	linux := harness.RunScenario(scenario(nfssim.ServerLinux, cfg, 30, false)).Trace
	r.FilerHist.AddTrace(filer)
	r.LinuxHist.AddTrace(linux)
	r.Filer, r.Linux = filer.Summary(), linux.Summary()
	return r
}

// Render formats both histograms and their summaries.
func (r *HistResult) Render() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	b.WriteString(r.FilerHist.String())
	b.WriteString(r.LinuxHist.String())
	line := func(name string, s stats.Summary, h *stats.Histogram) {
		fmt.Fprintf(&b, "%s: mean %v min %v max %v tail(>=%v) %d\n", name, s.Mean, s.Min, s.Max, TailCutoff, h.TailCount(TailCutoff))
	}
	line("filer", r.Filer, r.FilerHist)
	line("linux", r.Linux, r.LinuxHist)
	return b.String()
}

// Fig5 reproduces Figure 5: with the BKL held across sock_sendmsg, the
// faster filer produces more slow write() calls than the Linux server.
// (Buckets are 30 µs, not 60 µs: our 8 KB write path is ~2x faster than
// the paper's measured calls; see DESIGN.md §2.)
func Fig5() *HistResult {
	return hist("Figure 5 - Latency histogram (BKL across sock_sendmsg)", "hash")
}

// Fig6 reproduces Figure 6: releasing the BKL around sock_sendmsg shrinks
// the tail on both servers; minimum latency barely moves.
func Fig6() *HistResult {
	return hist("Figure 6 - Latency histogram (BKL released around sock_sendmsg)", "enhanced")
}

// Table1 reproduces Table 1: 5 MB runs with the BKL held ("hash") versus
// released ("enhanced") against both servers, plus §3.5's ingest framing.
// Rows are config-major: hash filer, hash linux, enhanced filer, linux.
var Table1 = &Experiment{
	Name: "table1", Desc: "client memory write throughput before/after lock fix",
	Grid: &harness.Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux},
		Configs:     configs("hash", "enhanced"),
		FileSizesMB: []int{5},
	},
	Render: func(rows []harness.Result) string {
		mbps := func(r harness.Result) string { return fmt.Sprintf("%.0f MBps", r.WriteMBps) }
		return table("Table 1 - Client memory write throughput, before and after lock modification",
			[]Column[[2]harness.Result]{
				{"", func(p [2]harness.Result) string {
					return map[string]string{"filer": "NetApp filer", "linux": "Linux NFS server"}[p[0].Server]
				}},
				{"Normal", func(p [2]harness.Result) string { return mbps(p[0]) }},
				{"No lock", func(p [2]harness.Result) string { return mbps(p[1]) }},
			}, [][2]harness.Result{{rows[0], rows[2]}, {rows[1], rows[3]}}) +
			fmt.Sprintf("sustained network write throughput: filer %.1f MBps, linux %.1f MBps\n",
				rows[0].ServerNetMBps, rows[1].ServerNetMBps)
	},
}

// Slow100 reproduces the §3.5 check over the server axis: a server on
// 100 Mb/s Ethernet sustains <10 MB/s on the wire yet yields *faster*
// client memory writes. Rows: slow100, then filer.
var Slow100 = &Experiment{
	Name: "slow100", Desc: "slower server yields faster client memory writes",
	Grid: &harness.Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerSlow100, nfssim.ServerFiler},
		Configs:     configs("hash"),
		FileSizesMB: []int{5},
	},
	Render: func(rows []harness.Result) string {
		slow, filer := rows[0], rows[1]
		return fmt.Sprintf(`Slow-server verification (§3.5)
  memory write throughput: 100Mb server %.1f MBps vs filer %.1f MBps
  network ingest:          100Mb server %.1f MBps vs filer %.1f MBps
  (the slower server leaves the writer less impeded: %v)
`, slow.WriteMBps, filer.WriteMBps, slow.ServerNetMBps, filer.ServerNetMBps, slow.WriteMBps > filer.WriteMBps)
	},
}

// ProfileResult carries the §3.4/§3.5 kernel-profile findings: the top
// CPU consumers of a linear-list run (where the paper's profiler finds
// nfs_find_request/nfs_update_request) and of a hash-table run, and the
// hash run's BKL wait by holding critical section, of which ~90% should
// be sock_sendmsg (SendFraction).
type ProfileResult struct {
	TopPreFix, TopPostFix []sim.ProfileEntry
	BKLWaitBySection      map[string]time.Duration
	SendFraction          float64
}

// Render formats the findings.
func (r *ProfileResult) Render() string {
	var b strings.Builder
	top := func(title string, entries []sim.ProfileEntry) {
		b.WriteString(title)
		for _, e := range entries {
			fmt.Fprintf(&b, "  %-32s %12v (%d calls)\n", e.Label, e.Total, e.Calls)
		}
	}
	top("Kernel profile, linear-list run (top CPU consumers):\n", r.TopPreFix)
	top("Kernel profile, hash-table run:\n", r.TopPostFix)
	fmt.Fprintf(&b, "BKL wait attribution (hash-table run, lock held across send):\n")
	for _, sec := range slices.Sorted(maps.Keys(r.BKLWaitBySection)) {
		fmt.Fprintf(&b, "  %-32s %12v\n", sec, r.BKLWaitBySection[sec])
	}
	fmt.Fprintf(&b, "sock_sendmsg share of BKL wait: %.0f%%\n", 100*r.SendFraction)
	return b.String()
}

// Profile reproduces the profiler findings of §3.4 and §3.5 from two
// 40 MB filer runs; the prepare hook hands back each run's test bed.
func Profile() *ProfileResult {
	bed := func(cfg string) (tb *nfssim.Testbed) {
		harness.RunScenarioOn(scenario(nfssim.ServerFiler, cfg, 40, false), func(b *nfssim.Testbed) { tb = b })
		return tb
	}
	list, hash := bed("nolimits"), bed("hash")
	r := &ProfileResult{
		TopPreFix:        list.Sim.Profiler().Top(6),
		TopPostFix:       hash.Sim.Profiler().Top(6),
		BKLWaitBySection: hash.Machines[0].BKL.WaitBreakdown(),
	}
	var total time.Duration
	for _, d := range r.BKLWaitBySection {
		total += d
	}
	if total > 0 {
		r.SendFraction = float64(r.BKLWaitBySection["sock_sendmsg"]) / float64(total)
	}
	return r
}

// Jumbo runs the §3.5 future-work ablation over the MTU axis: filer,
// enhanced client, 20 MB, standard versus jumbo frames, which cut IP
// fragmentation and so per-RPC sock_sendmsg CPU. Rows: standard, jumbo.
var Jumbo = &Experiment{
	Name: "jumbo", Desc: "jumbo-frame ablation",
	Grid: &harness.Grid{
		Servers:     onFiler,
		Configs:     configs("enhanced"),
		FileSizesMB: []int{20},
		Jumbo:       []bool{false, true},
		TimeLimit:   10 * time.Minute,
	},
	Render: func(rows []harness.Result) string {
		std, jumbo := rows[0], rows[1]
		return fmt.Sprintf(`Jumbo-frame ablation (§3.5 future work), filer, enhanced client, 20 MB
  write throughput: MTU 1500 %.1f MBps -> MTU 9000 %.1f MBps
  sock_sendmsg CPU: MTU 1500 %v -> MTU 9000 %v
`, std.FlushMBps, jumbo.FlushMBps, std.SendCPU, jumbo.SendCPU)
	},
}

// ConcurrencyResult is §3.5's forward-looking claim: without the BKL in
// the send path, concurrent writers to separate files on separate CPUs
// make better aggregate progress.
type ConcurrencyResult struct {
	Writers     int
	LockMBps    float64 // aggregate, BKL across sends
	NoLockMBps  float64 // aggregate, lock released
	LockMeanLat time.Duration
	NoLockMean  time.Duration
}

// Render formats the comparison.
func (r *ConcurrencyResult) Render() string {
	return fmt.Sprintf(`Concurrent writers (§3.5), %d writers x 5 MB files, filer
  aggregate write throughput: BKL %.1f MBps -> no lock %.1f MBps
  mean write() latency:       BKL %v -> no lock %v
`, r.Writers, r.LockMBps, r.NoLockMBps, r.LockMeanLat, r.NoLockMean)
}

// Concurrency runs the multi-writer comparison: two writers on one client
// machine, which no harness Scenario expresses (its writers are machines).
func Concurrency() *ConcurrencyResult {
	const writers = 2
	run := func(cfg core.Config) (float64, time.Duration) {
		tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler, Client: cfg})
		defer tb.Sim.Close()
		res := bonnie.RunConcurrentWorkload(tb.Sim, "conc", func(int) vfs.OpenSet { return tb.Machines[0].OpenSet() },
			writers, bonnie.Config{FileSize: 5 << 20, TimeLimit: 10 * time.Minute, SkipFlushClose: true})
		var sum time.Duration
		var n int
		for _, w := range res.PerWriter {
			s := w.Trace.Summary()
			sum += s.Mean * time.Duration(s.Count)
			n += s.Count
		}
		return res.AggregateMBps(), sum / time.Duration(n)
	}
	r := &ConcurrencyResult{Writers: writers}
	r.LockMBps, r.LockMeanLat = run(core.HashConfig())
	r.NoLockMBps, r.NoLockMean = run(core.EnhancedConfig())
	return r
}

// Scaling is the scale-out table the paper's single-client test bed could
// not run: 1-8 client machines against the filer.
var Scaling = &Experiment{
	Name: "scaling", Desc: "multi-client scale-out: per-client vs aggregate throughput + fairness",
	Grid: &harness.Grid{
		Servers:     onFiler,
		Configs:     configs("stock", "enhanced"),
		FileSizesMB: []int{5},
		Clients:     []int{1, 2, 4, 8},
		TimeLimit:   10 * time.Minute,
	},
	Title: "Multi-client scale-out - 5 MB per client, full runs, filer",
	Columns: []Column[harness.Result]{
		col("config", "%s", config),
		col("clients", "%d", func(r harness.Result) int { return r.Clients }),
		col("per-client MBps", "%.1f", func(r harness.Result) float64 { return r.CloseMBps }),
		col("aggregate MBps", "%.1f", aggMBps),
		col("fairness", "%.3f", func(r harness.Result) float64 { return r.Fairness }),
		col("server MBps", "%.1f", func(r harness.Result) float64 { return r.ServerNetMBps }),
	},
	Footer: "aggregate throughput converges on the server's sustained ingest as\n" +
		"clients are added; the fairness column shows the server's FIFO request\n" +
		"queue splitting that ceiling evenly across client machines\n",
}

// Fleet extends the Clients axis to 10/100/1000 enhanced machines, each
// writing 1 MB through close against the filer in one simulation. As the
// server saturates, slots stay occupied and new requests convoy.
var Fleet = &Experiment{
	Name: "fleet", Desc: "thousand-client fleet: aggregate ingest, fairness, slot-table convoying",
	Grid: &harness.Grid{
		Servers:     onFiler,
		Configs:     configs("enhanced"),
		FileSizesMB: []int{1},
		Clients:     []int{10, 100, 1000},
		TimeLimit:   2 * time.Hour,
	},
	Title: "Thousand-client fleet - 1 MB per client, full runs, filer/enhanced",
	Columns: []Column[harness.Result]{
		col("clients", "%d", func(r harness.Result) int { return r.Clients }),
		col("per-client MBps", "%.2f", func(r harness.Result) float64 { return r.CloseMBps }),
		col("aggregate MBps", "%.1f", aggMBps),
		col("fairness", "%.3f", func(r harness.Result) float64 { return r.Fairness }),
		col("server MBps", "%.1f", func(r harness.Result) float64 { return r.ServerNetMBps }),
		col("slot-wait share", "%.3f", SlotWaitShare),
		col("slot-wait us", "%.0f", SlotWaitMeanUs),
	},
	Footer: "the server's sustained ingest is a fixed ceiling, so per-client\n" +
		"throughput falls as 1/N while fairness holds near 1.0; the slot-wait\n" +
		"columns show requests convoying behind occupied slots as replies slow\n",
}

// Loss is the lossy-network table the paper motivates but never runs:
// UDP vs a TCP-style stream at 0/0.1/1/5 % per-fragment loss. Under UDP
// one lost fragment discards a whole 8 KB WRITE and stalls the client on
// its retransmit timer; the stream resends only the lost segment.
var Loss = &Experiment{
	Name: "loss", Desc: "lossy network: UDP loss amplification vs TCP segment recovery",
	Grid: &harness.Grid{
		Servers:     onFiler,
		Configs:     configs("stock", "enhanced"),
		FileSizesMB: []int{5},
		Transports:  []rpcsim.TransportKind{rpcsim.TransportUDP, rpcsim.TransportTCP},
		LossRates:   []float64{0, 0.001, 0.01, 0.05},
		TimeLimit:   10 * time.Minute,
	},
	Title: "Lossy network - 5 MB full runs, filer, UDP vs TCP",
	Columns: []Column[harness.Result]{
		col("config", "%s", config),
		col("transport", "%s", func(r harness.Result) string { return r.Transport }),
		col("loss %", "%g", func(r harness.Result) float64 { return r.Loss * 100 }),
		col("write MBps", "%.1f", writeMBps),
		col("end-to-end MBps", "%.2f", aggMBps),
		col("rexmt", "%d", func(r harness.Result) int64 { return r.Retransmits }),
		col("dup replies", "%d", func(r harness.Result) int64 { return r.DupReplies }),
	},
	Notes: func(e *Experiment, rows []harness.Result) string {
		var b strings.Builder
		for _, cfg := range []string{"stock", "enhanced"} {
			for _, loss := range []float64{0.01, 0.05} {
				u, t := LossDegradation(rows, cfg, "udp", loss), LossDegradation(rows, cfg, "tcp", loss)
				fmt.Fprintf(&b, "%s @ %g%% fragment loss: UDP loses %.1f%% of its throughput, TCP %.1f%% (TCP strictly better: %v)\n",
					cfg, loss*100, u*100, t*100, t < u)
			}
		}
		return b.String()
	},
	Footer: "one lost fragment costs UDP the whole 8 KB WRITE plus a backed-off\n" +
		"retransmit timeout; TCP resends only the missing segment\n",
}

// raOff is the enhanced client with readahead disabled.
func raOff() harness.ClientConfig {
	cfg := core.EnhancedConfig()
	cfg.ReadaheadMaxPages = core.ReadaheadOff
	return harness.ClientConfig{Name: "ra-off", Config: cfg}
}

// Read is the read path the paper's write-only benchmark never ran:
// read, rewrite and mixed workloads with a readahead-off ablation.
var Read = &Experiment{
	Name: "read", Desc: "read path: sequential read/rewrite/mixed with readahead ablation",
	Grid: &harness.Grid{
		Servers:     onFiler,
		Configs:     append(configs("stock", "enhanced"), raOff()),
		FileSizesMB: []int{10},
		Workloads:   []bonnie.Workload{bonnie.WorkloadRead, bonnie.WorkloadRewrite, bonnie.WorkloadMixed},
		TimeLimit:   10 * time.Minute,
	},
	Title: "Read path - 10 MB full runs, filer, readahead ablation",
	Columns: []Column[harness.Result]{
		col("config", "%s", config),
		col("workload", "%s", workload),
		col("MBps", "%.1f", writeMBps),
		col("end-to-end MBps", "%.1f", aggMBps),
		col("read RPCs", "%d", func(r harness.Result) int64 { return r.ReadRPCs }),
		col("hit rate", "%.3f", ReadHitRate),
	},
	Notes: func(e *Experiment, rows []harness.Result) string {
		on, off := e.Row(rows, "enhanced", "read").WriteMBps, e.Row(rows, "ra-off", "read").WriteMBps
		return fmt.Sprintf("sequential read: enhanced readahead %.1f MBps vs readahead-off %.1f MBps (%.1fx, strictly better: %v)\n",
			on, off, on/off, on > off)
	},
	Footer: "readahead hides the per-chunk round trip the same way write-behind\n" +
		"hides the WRITE RPC; the mixed rows show both daemons sharing the mount\n",
}

// Random runs the same I/O front to back and in a seeded permutation,
// across the fix progression (nolimits is fix 1's unbounded linear list).
// Random writes never coalesce and pile non-adjacent requests into the
// pending list, so the list's O(n) scans dominate: figures 3/4 diverge.
var Random = &Experiment{
	Name: "random", Desc: "random access: seq vs random chunk I/O across the fix progression",
	Grid: &harness.Grid{
		Servers:     onFiler,
		Configs:     configs("stock", "nolimits", "hash", "enhanced"),
		FileSizesMB: []int{25},
		Workloads: []bonnie.Workload{bonnie.WorkloadWrite, bonnie.WorkloadRandWrite,
			bonnie.WorkloadRead, bonnie.WorkloadRandRead},
		SkipFlushClose: true,
		TimeLimit:      20 * time.Minute,
	},
	Title: "Random access - 25 MB write-phase runs, filer, seq vs random",
	Columns: []Column[harness.Result]{
		col("config", "%s", config),
		col("workload", "%s", workload),
		col("MBps", "%.1f", writeMBps),
		col("RPCs", "%d", func(r harness.Result) int64 { return r.RPCsSent + r.ReadRPCs }),
		col("soft flushes", "%d", func(r harness.Result) int64 { return r.SoftFlushes }),
		col("hit rate", "%.3f", ReadHitRate),
	},
	Notes: func(e *Experiment, rows []harness.Result) string {
		mbps := func(cfg, wl string) float64 { return e.Row(rows, cfg, wl).WriteMBps }
		hashSeq, hashRand := mbps("hash", "write"), mbps("hash", "randwrite")
		listRand, stockRand := mbps("nolimits", "randwrite"), mbps("stock", "randwrite")
		return fmt.Sprintf("random writes: hash %.1f MBps vs linear list %.1f (%.2fx) vs stock %.1f (%.2fx)\n",
			hashRand, listRand, hashRand/listRand, stockRand, hashRand/stockRand) +
			fmt.Sprintf("hash client random/sequential parity: %.1f vs %.1f MBps (ratio %.3f)\n",
				hashRand, hashSeq, hashRand/hashSeq) +
			fmt.Sprintf("random reads defeat readahead: %.1f MBps vs %.1f sequential (enhanced)\n",
				mbps("enhanced", "randread"), mbps("enhanced", "read"))
	},
	Footer: "random chunk updates never coalesce past one chunk, so the pending list\n" +
		"grows non-adjacent and every lookup rescans it; the hash table makes the\n" +
		"same workload indistinguishable from a sequential one\n",
}

// DB is the §3.6 durability table: random page updates with a group
// commit every 50 chunks (bonnie.WorkloadDB). The filer acknowledges
// WRITEs from NVRAM and never needs a COMMIT; the Linux server answers
// UNSTABLE and makes every fsync wait on its disk.
var DB = &Experiment{
	Name: "db", Desc: "database load: random page updates with group-commit fsync, filer vs linux",
	Grid: &harness.Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux},
		Configs:     configs("stock", "enhanced"),
		FileSizesMB: []int{20},
		Workloads:   []bonnie.Workload{bonnie.WorkloadDB},
		FsyncEvery:  50,
		TimeLimit:   20 * time.Minute,
	},
	Title: "Database load - 20 MB random page updates, fsync every 50 chunks",
	Columns: []Column[harness.Result]{
		col("server", "%s", func(r harness.Result) string { return r.Server }),
		col("config", "%s", config),
		col("MBps", "%.1f", writeMBps),
		col("fsyncs", "%d", func(r harness.Result) int64 { return r.FsyncCount }),
		col("in fsync", "%v", func(r harness.Result) time.Duration { return FsyncTime(r).Round(time.Millisecond) }),
		col("COMMITs", "%d", func(r harness.Result) int64 { return r.CommitRPCs }),
		col("tx/sec", "%.0f", TxPerSec),
	},
	Notes: func(e *Experiment, rows []harness.Result) string {
		var b strings.Builder
		for _, cfg := range []string{"stock", "enhanced"} {
			f, l := FsyncTime(*e.Row(rows, "filer", cfg)), FsyncTime(*e.Row(rows, "linux", cfg))
			fmt.Fprintf(&b, "%s: fsync costs %v on the filer vs %v on the Linux server (filer faster: %v)\n",
				cfg, f.Round(time.Millisecond), l.Round(time.Millisecond), f < l)
		}
		return b.String()
	},
	Footer: "the filer never needs COMMIT (NVRAM): group commits return once the\n" +
		"WRITE queue drains; the Linux server answers UNSTABLE and every fsync\n" +
		"pays a COMMIT that waits on the server's disk\n",
}

// Zipf is the many-file metadata table: ops on files drawn from a Zipfian
// popularity distribution, attribute cache on/off x skewed/uniform. Skew
// concentrates ops on a hot set, so zipf beats uniform on hit rate and
// metadata RPCs (not on throughput: hot files carry data that costs wire
// time to read).
var Zipf = &Experiment{
	Name: "zipf", Desc: "many-file metadata: Zipfian op mix with attr-cache and skew ablations",
	Grid: &harness.Grid{
		Servers:     onFiler,
		Configs:     configs("enhanced"),
		FileSizesMB: []int{4},
		Workloads:   []bonnie.Workload{bonnie.WorkloadZipf},
		FileCounts:  []int{100},
		ZipfSs:      []float64{bonnie.DefaultZipfS, bonnie.ZipfUniform},
		AcTimeouts:  []sim.Time{0, core.AcOff},
		TimeLimit:   10 * time.Minute,
	},
	Title: "Many-file metadata - 4 MB op budget over 100 files, filer, enhanced client",
	Columns: []Column[harness.Result]{
		col("skew", "%s", func(r harness.Result) string {
			return map[bool]string{false: "zipf", true: "uniform"}[r.Scenario.ZipfS == bonnie.ZipfUniform]
		}),
		col("attr cache", "%s", func(r harness.Result) string {
			return map[bool]string{false: "on", true: "off"}[r.Scenario.AcTimeout < 0]
		}),
		col("agg MBps", "%.2f", aggMBps),
		col("LOOKUPs", "%d", func(r harness.Result) int64 { return r.LookupRPCs }),
		col("GETATTRs", "%d", getattrs),
		col("CREATEs", "%d", func(r harness.Result) int64 { return r.CreateRPCs }),
		col("REMOVEs", "%d", func(r harness.Result) int64 { return r.RemoveRPCs }),
		col("hit rate", "%.3f", func(r harness.Result) float64 { return r.AttrCacheHitRate }),
	},
	Notes: func(e *Experiment, rows []harness.Result) string {
		on, off, uni := e.Row(rows, "zipf", "on"), e.Row(rows, "zipf", "off"), e.Row(rows, "uniform", "on")
		zm, um := MetadataRPCs(*on), MetadataRPCs(*uni)
		return fmt.Sprintf("attribute cache: %d GETATTRs vs %d with noac (fewer: %v); %.2f vs %.2f MBps (faster: %v)\n",
			on.GetattrRPCs, off.GetattrRPCs, on.GetattrRPCs < off.GetattrRPCs,
			on.AggMBps, off.AggMBps, on.AggMBps > off.AggMBps) +
			fmt.Sprintf("hot-set skew: hit rate %.3f vs uniform %.3f (higher: %v); %d metadata RPCs vs %d (fewer: %v)\n",
				on.AttrCacheHitRate, uni.AttrCacheHitRate, on.AttrCacheHitRate > uni.AttrCacheHitRate, zm, um, zm < um)
	},
	Footer: "every op resolves its name through the attribute cache; hot files stay\n" +
		"fresh between opens, so the cache saves the per-open GETATTR the way\n" +
		"write-behind saves per-write round trips\n",
}

// MetadataRPCs is a run's LOOKUP + GETATTR + CREATE RPCs.
func MetadataRPCs(r harness.Result) int64 { return r.LookupRPCs + r.GetattrRPCs + r.CreateRPCs }

// CoherenceWindow is the ttl attribute-cache window the coherence table
// pins. It must sit between one reader pass over the shared span
// (shorter and ttl degenerates to strict: every open ages out) and the
// full run (longer and ttl degenerates to noac: no open ever ages out).
const CoherenceWindow = sim.Time(40 * time.Millisecond)

// Coherence is the cache-coherence table: two clients rewrite one shared
// file while two re-open and re-read it. Strict revalidates every open
// and is never stale, at the cost of GETATTRs; ttl bounds staleness by
// the window; noac ("never revalidate an open") is fastest and stalest.
var Coherence = &Experiment{
	Name: "coherence", Desc: "cache coherence: staleness vs throughput across consistency modes on one shared file",
	Grid: &harness.Grid{
		Servers:       onFiler,
		Configs:       configs("enhanced"),
		FileSizesMB:   []int{2},
		Clients:       []int{4},
		Workloads:     []bonnie.Workload{bonnie.WorkloadShared},
		AcTimeouts:    []sim.Time{CoherenceWindow},
		Consistencies: []core.ConsistencyMode{core.ConsistencyStrict, core.ConsistencyTTL, core.ConsistencyNoac},
		TimeLimit:     10 * time.Minute,
	},
	Title: fmt.Sprintf("Cache coherence - 4 clients sharing one 2 MB file, filer, enhanced client, ttl window %v",
		time.Duration(CoherenceWindow)),
	Columns: []Column[harness.Result]{
		col("mode", "%s", func(r harness.Result) string { return r.Consistency }),
		col("agg MBps", "%.2f", aggMBps),
		col("stale reads", "%d", func(r harness.Result) int64 { return r.StaleReads }),
		col("invalidations", "%d", func(r harness.Result) int64 { return r.Invalidations }),
		col("GETATTRs", "%d", getattrs),
		col("change bumps", "%d", func(r harness.Result) int64 { return r.ChangeBumps }),
	},
	Notes: func(e *Experiment, rows []harness.Result) string {
		strict, ttl, noac := e.Row(rows, "strict"), e.Row(rows, "ttl"), e.Row(rows, "noac")
		return fmt.Sprintf("strict close-to-open: %d stale reads (zero: %v); %d GETATTRs vs ttl's %d (more: %v)\n",
			strict.StaleReads, strict.StaleReads == 0,
			strict.GetattrRPCs, ttl.GetattrRPCs, strict.GetattrRPCs > ttl.GetattrRPCs) +
			fmt.Sprintf("ttl window: %d stale reads vs noac's %d (bounded: %v); %.2f vs strict's %.2f MBps (no slower: %v)\n",
				ttl.StaleReads, noac.StaleReads, ttl.StaleReads < noac.StaleReads,
				ttl.AggMBps, strict.AggMBps, ttl.AggMBps >= strict.AggMBps)
	},
	Footer: "every GETATTR a mode skips is a round trip saved and a chance to serve\n" +
		"a page the writers already replaced; the change attribute is what turns\n" +
		"the revalidation that is issued into an actual invalidation\n",
}
