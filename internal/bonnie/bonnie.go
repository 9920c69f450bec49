// Package bonnie implements the paper's benchmark (§2.3) — the block
// sequential write portion of Bonnie, refined to report what the paper
// needs — plus the Bonnie passes the paper never ran: rewrite, block
// sequential read, a mixed read/write mode, random chunk reads and
// writes over a preallocated file (the database-style access pattern the
// paper's introduction motivates), and a group-commit variant that
// fsyncs every FsyncEvery chunks. Each run drives fixed-size chunks
// through one I/O pattern (Workload) and reports:
//
//   - three cumulative throughputs — after the last I/O call, after
//     flush(), and after close() — each computed as total bytes divided
//     by the time from the start of the benchmark to just after that
//     operation ("to make fair comparisons between NFS (which always
//     flushes completely before last close) and local file systems");
//   - actual per-call latency, "and not average latency", because jitter
//     is invisible in means (Figures 2–4 are these traces).
package bonnie

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vfs"
)

// chunkSize is the benchmark's per-call size: "how quickly an
// application can write 8 KB chunks into a fresh file" (§2.3).
const chunkSize = 8192

// DefaultDBFsyncEvery is the db workload's group-commit batch when
// Config.FsyncEvery is unset: flush after every 32 chunk writes.
const DefaultDBFsyncEvery = 32

// Workload selects the I/O pattern a run performs.
type Workload int

const (
	// WorkloadWrite is the paper's benchmark: sequential chunks written
	// into a fresh file.
	WorkloadWrite Workload = iota
	// WorkloadRewrite is Bonnie's rewrite pass: read each chunk of an
	// existing file and write it back in place.
	WorkloadRewrite
	// WorkloadRead is Bonnie's block read pass: sequentially read an
	// existing file front to back.
	WorkloadRead
	// WorkloadMixed alternates chunk reads of an existing file with
	// chunk writes appended to a fresh file, half the total each — the
	// pressure pattern that exercises readahead and write-behind at once.
	WorkloadMixed
	// WorkloadRandRead reads every chunk of an existing file exactly once
	// in a deterministic per-seed random order (pread) — the pattern that
	// defeats sequential readahead.
	WorkloadRandRead
	// WorkloadRandWrite updates every chunk of a preallocated file exactly
	// once in a deterministic per-seed random order (pwrite) — the
	// database-page-update pattern that defeats request coalescing and
	// stresses the pending-request lookup structure (§3.4).
	WorkloadRandWrite
	// WorkloadDB is WorkloadRandWrite with group commit: a Flush (fsync)
	// after every FsyncEvery chunk writes, the transactional durability
	// pattern §3.6 contrasts across servers.
	WorkloadDB
	// WorkloadZipf is the many-file metadata workload: each op draws a
	// file from a seed-deterministic Zipfian popularity distribution over
	// FileCount names and performs one of create/write/read/stat/remove
	// per the OpMix percentages, opening and closing around every data
	// op. It drives the target's Namespace (LOOKUP/GETATTR/CREATE/REMOVE
	// on NFS) and the client's attribute cache instead of streaming one
	// big file.
	WorkloadZipf
	// WorkloadShared is the cache-coherence workload: every worker opens
	// the same named file. Writers (SharedWriterPct of the workers, the
	// first of them priming the file front to back) rewrite it in place
	// with periodic flushes; readers loop open/read-pass/close over it,
	// pausing SharedReadLag between passes. Whether a reader's pass sees
	// the writers' updates is exactly the close-to-open consistency
	// question the client's Consistency mode answers.
	WorkloadShared
)

// opens is the set of files a workload opens for its I/O phase.
type opens int

const (
	openFresh         opens = iota // one fresh, empty file
	openExisting                   // one cold file holding FileSize bytes
	openExistingFresh              // a cold file holding half of them, and a fresh one
	openByName                     // files by name, inside the I/O phase
)

// workload declares one Workload: what it opens, how its I/O phase runs
// and how it takes the group-commit cadence.
type workload struct {
	name  string
	opens opens
	// random visits the chunks in chunkPerm's order, not front to back.
	random bool
	// reads and writes are runChunks' per-chunk op: a read, a write, or
	// a read then a write of the same chunk.
	reads, writes bool
	// body, when set, runs the I/O phase instead of runChunks.
	body func(*worker)
	// fsyncs is whether the workload honours FsyncEvery, and fsyncEvery
	// its cadence when FsyncEvery is unset.
	fsyncs     bool
	fsyncEvery int
	// sharedExport is whether every machine must mount the same export.
	sharedExport bool
}

// workloads declares every Workload, indexed by it.
var workloads = [...]workload{
	WorkloadWrite:     {name: "write", opens: openFresh, writes: true, fsyncs: true},
	WorkloadRewrite:   {name: "rewrite", opens: openExisting, reads: true, writes: true, fsyncs: true},
	WorkloadRead:      {name: "read", opens: openExisting, reads: true},
	WorkloadMixed:     {name: "mixed", opens: openExistingFresh, body: runMixed, fsyncs: true},
	WorkloadRandRead:  {name: "randread", opens: openExisting, random: true, reads: true},
	WorkloadRandWrite: {name: "randwrite", opens: openExisting, random: true, writes: true, fsyncs: true},
	WorkloadDB: {name: "db", opens: openExisting, random: true, writes: true,
		fsyncs: true, fsyncEvery: DefaultDBFsyncEvery},
	WorkloadZipf: {name: "zipf", opens: openByName, body: runZipf},
	WorkloadShared: {name: "shared", opens: openByName, body: runShared,
		fsyncs: true, fsyncEvery: DefaultSharedFsyncEvery, sharedExport: true},
}

func (w Workload) String() string { return workloads[w].name }

// ParseWorkload resolves a workload name as printed by String.
func ParseWorkload(name string) (Workload, error) {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		if wl.name == name {
			return Workload(i), nil
		}
		names[i] = wl.name
	}
	return 0, fmt.Errorf("bonnie: unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// OpensByName reports whether the workload opens its files by name, so
// it needs a target with a namespace.
func (w Workload) OpensByName() bool { return workloads[w].opens == openByName }

// HonoursFsyncEvery reports whether the workload flushes mid-run on the
// Config.FsyncEvery cadence; the others ignore it.
func (w Workload) HonoursFsyncEvery() bool { return workloads[w].fsyncs }

// SharedExport reports whether every machine of a multi-client run must
// mount the same export, so the workers' files collide.
func (w Workload) SharedExport() bool { return workloads[w].sharedExport }

// DefaultSharedWriterPct is the shared workload's writer share when
// Config.SharedWriterPct is unset: half the workers write, half read.
const DefaultSharedWriterPct = 50

// DefaultSharedFsyncEvery is the shared workload's write-side flush
// cadence when Config.FsyncEvery is unset: without it a writer's
// updates sit in its cache until close and readers on other machines
// have nothing to be coherent about.
const DefaultSharedFsyncEvery = 8

// sharedFileName is the one file every shared-workload worker targets.
const sharedFileName = "shared0"

// sharedPasses sizes the shared file at 1/sharedPasses of each worker's
// byte budget (at least one chunk), so a writer rewrites it about
// sharedPasses times and a reader covers it in about sharedPasses
// open/read/close passes — enough reopens for the consistency modes to
// diverge measurably.
const sharedPasses = 8

// sharedPollInterval paces a reader that got ahead of the priming
// writer (the file is still empty): sleep, reopen, retry.
const sharedPollInterval = sim.Time(10 * time.Millisecond)

// DefaultZipfFiles is the zipf workload's file population when
// Config.FileCount is unset.
const DefaultZipfFiles = 100

// DefaultZipfS is the zipf workload's skew exponent when Config.ZipfS is
// unset: file i (0-based popularity rank) is drawn with weight
// 1/(i+1)^s, so 1.2 concentrates most ops on a small hot set.
const DefaultZipfS = 1.2

// ZipfUniform is a Config.ZipfS sentinel selecting uniform file choice
// (exponent 0) — the no-skew baseline the zipf sweeps compare against.
const ZipfUniform = -1

// OpMix is the zipf workload's operation mix, in percentages summing to
// 100. Each drawn op opens/acts/closes one file from the popularity
// distribution.
type OpMix struct {
	// Create opens the file by name (creating it server-side if absent)
	// and closes it — pure metadata.
	Create int
	// Write opens the file and appends one chunk.
	Write int
	// Read opens the file and reads up to one chunk from the front.
	Read int
	// Stat asks for the file's attributes without opening it.
	Stat int
	// Remove unlinks the file.
	Remove int
}

// DefaultOpMix is the standard many-file mix: mostly data ops with a
// steady metadata churn.
func DefaultOpMix() OpMix { return OpMix{Create: 10, Write: 30, Read: 40, Stat: 15, Remove: 5} }

// IsZero reports whether the mix is entirely unset (use the default).
func (m OpMix) IsZero() bool { return m == OpMix{} }

// String renders the mix compactly (c10w30r40s15d5), the form harness
// keys embed.
func (m OpMix) String() string {
	return fmt.Sprintf("c%dw%dr%ds%dd%d", m.Create, m.Write, m.Read, m.Stat, m.Remove)
}

// ParseOpMix parses "create/write/read/stat/remove" percentages, e.g.
// "10/30/40/15/5".
func ParseOpMix(s string) (OpMix, error) {
	var m OpMix
	n, err := fmt.Sscanf(s, "%d/%d/%d/%d/%d", &m.Create, &m.Write, &m.Read, &m.Stat, &m.Remove)
	if err != nil || n != 5 {
		return OpMix{}, fmt.Errorf("bonnie: bad op mix %q (want create/write/read/stat/remove percentages, e.g. 10/30/40/15/5)", s)
	}
	if !m.valid() {
		return OpMix{}, fmt.Errorf("bonnie: op mix %q must be non-negative and sum to 100", s)
	}
	return m, nil
}

// valid reports whether every percentage is non-negative and they sum
// to 100.
func (m OpMix) valid() bool {
	return m.Create >= 0 && m.Write >= 0 && m.Read >= 0 && m.Stat >= 0 && m.Remove >= 0 &&
		m.Create+m.Write+m.Read+m.Stat+m.Remove == 100
}

// Config parameterizes one benchmark run.
type Config struct {
	// FileSize is the total bytes of I/O to perform. For write, rewrite
	// and read it is also the file's size; for mixed it splits evenly
	// between the read stream and the write stream.
	FileSize int64
	// Workload is the I/O pattern (default WorkloadWrite).
	Workload Workload
	// FsyncEvery flushes the write stream after every FsyncEvery chunk
	// calls during the I/O phase — group commit. 0 means the workload's
	// default: DefaultDBFsyncEvery for WorkloadDB,
	// DefaultSharedFsyncEvery for WorkloadShared, never for the rest.
	// Workloads that do not honour it (HonoursFsyncEvery) ignore it.
	FsyncEvery int
	// TimeLimit aborts a runaway simulation (default 30 virtual minutes).
	TimeLimit sim.Time
	// SkipFlushClose stops after the I/O phase (local-vs-NFS comparison
	// in Figure 1 uses write-only throughput).
	SkipFlushClose bool

	// FileCount is the zipf workload's file population (default
	// DefaultZipfFiles). Ignored by the single-file workloads.
	FileCount int
	// ZipfS is the zipf workload's skew exponent (default DefaultZipfS;
	// ZipfUniform selects uniform choice). Ignored by the single-file
	// workloads.
	ZipfS float64
	// Mix is the zipf workload's op mix (zero value means DefaultOpMix).
	// Ignored by the single-file workloads.
	Mix OpMix

	// SharedWriterPct is the shared workload's writer share of the
	// workers, in percent (default DefaultSharedWriterPct). Writers are
	// spread evenly across the worker indices; a run always has at least
	// one writer, so the shared file exists. Ignored by other workloads.
	SharedWriterPct int
	// SharedReadLag is how long a shared-workload reader pauses between
	// read passes — the consumer's polling cadence, and the window in
	// which its cached pages go stale. 0 means back-to-back passes.
	SharedReadLag sim.Time

	// workers is the concurrent worker count, set by the runners so the
	// shared workload can place its writers; not a caller knob.
	workers int
}

// Result is one benchmark run's measurements.
type Result struct {
	Target   string
	Workload Workload
	FileSize int64
	Calls    int

	// Elapsed virtual time from benchmark start to just after each
	// phase. WriteElapsed is the I/O phase (named for the paper's
	// write-only benchmark; for read workloads it is the read phase). For
	// group-commit runs (FsyncEvery > 0) the I/O phase includes the
	// mid-run flushes, so WriteMBps reflects the durable rate.
	WriteElapsed sim.Time
	FlushElapsed sim.Time
	CloseElapsed sim.Time

	// FsyncCount is how many group-commit flushes the I/O phase issued
	// (FsyncEvery cadence); FsyncTime is the virtual time spent inside
	// them — the fsync-dominance signal §3.6 is about.
	FsyncCount int
	FsyncTime  sim.Time

	// Trace holds actual per-call latencies: one sample per write() or
	// read() (rewrite records one sample per read-modify-write pair);
	// group-commit flushes are tracked in FsyncTime, not the trace.
	Trace *stats.Trace
}

// WriteMBps is throughput counting only write() calls.
func (r *Result) WriteMBps() float64 { return stats.MBps(r.FileSize, r.WriteElapsed) }

// FlushMBps is throughput through the flush operation.
func (r *Result) FlushMBps() float64 { return stats.MBps(r.FileSize, r.FlushElapsed) }

// CloseMBps is throughput through the final close.
func (r *Result) CloseMBps() float64 { return stats.MBps(r.FileSize, r.CloseElapsed) }

// WriteKBps is the Figures 1/7 y-axis unit.
func (r *Result) WriteKBps() float64 { return stats.KBps(r.FileSize, r.WriteElapsed) }

func (r *Result) String() string {
	s := r.Trace.Summary()
	out := fmt.Sprintf("%s: %d MB in %d x %d B %s calls\n", r.Target, r.FileSize>>20, r.Calls, chunkSize, r.Workload)
	out += fmt.Sprintf("  write:  %7.1f MB/s  (elapsed %v)\n", r.WriteMBps(), r.WriteElapsed)
	if r.FlushElapsed > 0 {
		out += fmt.Sprintf("  flush:  %7.1f MB/s  (elapsed %v)\n", r.FlushMBps(), r.FlushElapsed)
		out += fmt.Sprintf("  close:  %7.1f MB/s  (elapsed %v)\n", r.CloseMBps(), r.CloseElapsed)
	}
	out += fmt.Sprintf("  per-call latency: mean %v  median %v  max %v\n", s.Mean, s.Median, s.Max)
	return out
}

// ConcurrentResult aggregates a multi-writer run.
type ConcurrentResult struct {
	PerWriter []*Result
	// Elapsed is when the last writer finished (from simulation start of
	// the run).
	Elapsed sim.Time
	// TotalBytes across all writers.
	TotalBytes int64
}

// AggregateMBps is total bytes over the span until the last writer
// finished — the client-wide write bandwidth §3.5's concurrency argument
// is about.
func (r *ConcurrentResult) AggregateMBps() float64 {
	return stats.MBps(r.TotalBytes, r.Elapsed)
}

// ioFiles are one worker's open files: the workload's primary stream
// (the fresh file for write, the existing file otherwise) and, for
// mixed, the fresh write-side file. The by-name workloads open files
// inside the I/O phase instead and carry the target's namespace.
type ioFiles struct {
	main  vfs.File
	aux   vfs.File
	names vfs.Namespace
}

// openFiles opens what the configured workload declares.
func openFiles(open vfs.OpenSet, cfg Config) ioFiles {
	switch o := workloads[cfg.Workload].opens; {
	case o == openFresh:
		return ioFiles{main: open.Fresh()}
	case o == openByName && open.Names == nil:
		panic(fmt.Sprintf("bonnie: %s workload needs a Names opener (a target with a namespace)", cfg.Workload))
	case o == openByName:
		return ioFiles{names: open.Names}
	case open.Existing == nil:
		panic(fmt.Sprintf("bonnie: %s workload needs an Existing opener", cfg.Workload))
	case o == openExistingFresh:
		return ioFiles{main: open.Existing(cfg.FileSize / 2), aux: open.Fresh()}
	}
	return ioFiles{main: open.Existing(cfg.FileSize)}
}

// worker is one worker's I/O phase: its process, index, files and
// result.
type worker struct {
	ioFiles
	p     *sim.Proc
	s     *sim.Sim
	index int
	cfg   Config
	res   *Result
}

// sample records one call that started at t0.
func (w *worker) sample(t0 sim.Time) {
	w.res.Trace.Add(w.s.Now() - t0)
	w.res.Calls++
}

// read reads n bytes of f at off and panics on a short read: every
// chunk a workload reads lies inside the file.
func (w *worker) read(f vfs.File, off int64, n int) {
	if got := f.ReadAt(w.p, off, n); got != n {
		panic(fmt.Sprintf("bonnie: short read %d of %d at %d", got, n, off))
	}
}

// maybeFsync applies the FsyncEvery group-commit cadence after the
// call'th chunk call that wrote f.
func (w *worker) maybeFsync(call int, f vfs.File) {
	if w.cfg.FsyncEvery <= 0 || call%w.cfg.FsyncEvery != 0 {
		return
	}
	t0 := w.s.Now()
	f.Flush(w.p)
	w.res.FsyncTime += w.s.Now() - t0
	w.res.FsyncCount++
}

// chunkPerm returns the order a random workload visits its chunks: a
// permutation of every chunk index, deterministic per (simulation seed,
// worker). The rng derives from sim.Seed() with its own salt, exactly
// like netsim.LossConfig's loss stream, so enabling a random workload
// never perturbs the draw sequence other components see, and the same
// scenario produces the same permutation at any harness worker count.
func chunkPerm(s *sim.Sim, worker, n int) []int {
	rng := rand.New(rand.NewSource(s.Seed()*0x9E3779B1 + 0x72616E64 + int64(worker)*0x10001))
	return rng.Perm(n)
}

// zipfRNG is the zipf workload's op stream source, deterministic per
// (simulation seed, worker) with its own salt ("zipf"), following the
// same discipline as chunkPerm: the stream is a pure function of seed
// and worker, so reruns and harness worker counts reproduce it exactly.
func zipfRNG(s *sim.Sim, worker int) *rand.Rand {
	return rand.New(rand.NewSource(s.Seed()*0x9E3779B1 + 0x7a697066 + int64(worker)*0x10001))
}

// zipfPicker draws file indices from a Zipfian popularity distribution:
// rank i has weight 1/(i+1)^s. s = 0 is uniform. Inverse-CDF over the
// cumulative weights with binary search, so draws cost O(log n) and the
// distribution is exact for any n.
type zipfPicker struct {
	cum []float64 // cumulative weights, cum[n-1] is the total mass
}

func newZipfPicker(n int, s float64) *zipfPicker {
	if s < 0 {
		s = 0 // ZipfUniform sentinel
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return &zipfPicker{cum: cum}
}

func (z *zipfPicker) pick(rng *rand.Rand) int {
	u := rng.Float64() * z.cum[len(z.cum)-1]
	return sort.SearchFloat64s(z.cum, u)
}

// zipfOp maps a percentage roll in [0, 100) to an operation through the
// mix's cumulative thresholds.
type zipfOp int

const (
	zipfCreate zipfOp = iota
	zipfWrite
	zipfRead
	zipfStat
	zipfRemove
)

func (m OpMix) op(roll int) zipfOp {
	switch {
	case roll < m.Create:
		return zipfCreate
	case roll < m.Create+m.Write:
		return zipfWrite
	case roll < m.Create+m.Write+m.Read:
		return zipfRead
	case roll < m.Create+m.Write+m.Read+m.Stat:
		return zipfStat
	default:
		return zipfRemove
	}
}

// runZipf performs the many-file metadata workload: chunkCount(cfg) ops,
// each drawing a file from the popularity distribution and an operation
// from the mix (file first, then op — the draw order is part of the
// deterministic stream). Data ops open by name, act, and close, so every
// op exercises the open-time attribute revalidation path. The bytes a
// run actually moves replace res.FileSize so the throughput accessors
// report real data motion, not the op budget.
func runZipf(w *worker) {
	p, names, cfg := w.p, w.names, w.cfg
	rng := zipfRNG(w.s, w.index)
	picker := newZipfPicker(cfg.FileCount, cfg.ZipfS)
	ops := chunkCount(cfg)
	var moved int64
	for k := 0; k < ops; k++ {
		name := fmt.Sprintf("f%05d", picker.pick(rng))
		op := cfg.Mix.op(rng.Intn(100))
		t0 := w.s.Now()
		switch op {
		case zipfCreate:
			f := names.OpenByName(p, name)
			f.Close(p)
		case zipfWrite:
			f := names.OpenByName(p, name)
			f.WriteAt(p, f.Size(), chunkSize)
			f.Close(p)
			moved += chunkSize
		case zipfRead:
			// Read the file's last chunk — the log-tail pattern: the
			// freshest data, and a read that never drags readahead
			// through a hot file's whole history.
			f := names.OpenByName(p, name)
			off := f.Size() - chunkSize
			if off < 0 {
				off = 0
			}
			moved += int64(f.ReadAt(p, off, chunkSize))
			f.Close(p)
		case zipfStat:
			names.Stat(p, name)
		case zipfRemove:
			names.Remove(p, name)
		}
		w.sample(t0)
	}
	w.res.FileSize = moved
}

// sharedIsWriter reports whether worker w of n is a shared-workload
// writer under pct. Writers are the indices where the floor of the
// cumulative writer share advances, which spreads them evenly across
// the worker range (pct=50 makes the odd indices write). When rounding
// assigns no writer at all — few workers, low pct — worker 0 writes,
// so the shared file always has a producer.
func sharedIsWriter(w, n, pct int) bool {
	if n*pct/100 == 0 {
		return w == 0
	}
	return (w+1)*pct/100 > w*pct/100
}

// sharedPrimer is the lowest writer index: the worker that creates the
// shared file and fills it front to back, establishing the size the
// readers' passes cover.
func sharedPrimer(n, pct int) int {
	for w := 0; w < n; w++ {
		if sharedIsWriter(w, n, pct) {
			return w
		}
	}
	return 0
}

// sharedSpanChunks is the shared file's size in whole chunks: each
// worker's chunk budget divided by sharedPasses, at least one.
func sharedSpanChunks(cfg Config) int { return max(chunkCount(cfg)/sharedPasses, 1) }

// runShared performs the cache-coherence workload: every worker targets
// the one shared file, a span of sharedSpanChunks whole chunks. The
// primer fills it front to back and keeps rewriting; other writers
// rewrite it in place too, wrapping, each from a worker-staggered start
// chunk so they don't march in lockstep; all flush on the maybeFsync
// cadence so their updates become server-visible mid-run. Readers wait
// for the primer to finish the first fill (the priming barrier), then
// loop open / full pass / close with SharedReadLag between passes until
// their byte budget is read — whether a pass sees the writers' updates
// or superseded cached pages is the consistency mode's call, and the
// client counts the latter as stale reads. Every worker's budget is
// FileSize bytes; the bytes actually moved replace res.FileSize so
// throughput reflects real data motion.
func runShared(w *worker) {
	cfg := w.cfg
	n := max(cfg.workers, 1)
	if !sharedIsWriter(w.index, n, cfg.SharedWriterPct) {
		runSharedReader(w)
		return
	}
	chunks := chunkCount(cfg)
	span := sharedSpanChunks(cfg)
	start := 0
	if w.index != sharedPrimer(n, cfg.SharedWriterPct) {
		start = (w.index * 7) % span
	}
	f := w.names.OpenByName(w.p, sharedFileName)
	for k := 0; k < chunks; k++ {
		off := int64((start+k)%span) * chunkSize
		t0 := w.s.Now()
		f.WriteAt(w.p, off, chunkSize)
		w.sample(t0)
		w.maybeFsync(k+1, f)
	}
	f.Close(w.p)
	w.res.FileSize = int64(chunks) * chunkSize
}

// runSharedReader is the consumer half of the shared workload. The
// priming barrier polls stat() until the file reports its full span —
// the explicit attribute query refreshes the cached entry once it ages
// out, which is the only escape for a client whose opens never
// revalidate. Then each pass reopens the file (the close-to-open
// revalidation point), reads the span front to back, closes, and waits
// out the lag. A pass that reads nothing — a cached size-zero attribute
// entry still masking the fill — backs off one poll interval so virtual
// time always advances.
func runSharedReader(w *worker) {
	p, names, cfg := w.p, w.names, w.cfg
	span := int64(sharedSpanChunks(cfg)) * chunkSize
	for {
		if size, ok := names.Stat(p, sharedFileName); ok && size >= span {
			break
		}
		p.Sleep(sharedPollInterval)
	}
	var moved int64
	for moved < cfg.FileSize {
		f := names.OpenByName(p, sharedFileName)
		var pos int64
		for pos < span && moved < cfg.FileSize {
			nb := chunkFor(min(span-pos, cfg.FileSize-moved))
			t0 := w.s.Now()
			got := f.ReadAt(p, pos, nb)
			w.sample(t0)
			pos += int64(got)
			moved += int64(got)
			if got < nb {
				break
			}
		}
		f.Close(p)
		if moved >= cfg.FileSize {
			break
		}
		if pos == 0 {
			p.Sleep(sharedPollInterval)
			names.Stat(p, sharedFileName)
		} else if cfg.SharedReadLag > 0 {
			p.Sleep(cfg.SharedReadLag)
		}
	}
	w.res.FileSize = moved
}

// chunkCount is how many chunk-sized calls cover FileSize (the final
// chunk may be partial).
func chunkCount(cfg Config) int {
	return int((cfg.FileSize + chunkSize - 1) / chunkSize)
}

// normalize fills Config defaults and rejects invalid knobs.
func normalize(cfg Config) Config {
	if cfg.TimeLimit == 0 {
		cfg.TimeLimit = 30 * time.Minute
	}
	if cfg.FsyncEvery < 0 {
		panic("bonnie: FsyncEvery must be non-negative")
	}
	if wl := workloads[cfg.Workload]; !wl.fsyncs {
		cfg.FsyncEvery = 0
	} else if cfg.FsyncEvery == 0 {
		cfg.FsyncEvery = wl.fsyncEvery
	}
	if cfg.Workload == WorkloadShared {
		if cfg.SharedWriterPct == 0 {
			cfg.SharedWriterPct = DefaultSharedWriterPct
		}
		if cfg.SharedWriterPct < 1 || cfg.SharedWriterPct > 100 {
			panic(fmt.Sprintf("bonnie: SharedWriterPct %d outside [1, 100]", cfg.SharedWriterPct))
		}
		if cfg.SharedReadLag < 0 {
			panic("bonnie: SharedReadLag must be non-negative")
		}
	}
	if cfg.Workload == WorkloadZipf {
		if cfg.FileCount == 0 {
			cfg.FileCount = DefaultZipfFiles
		}
		if cfg.FileCount < 1 {
			panic("bonnie: FileCount must be positive")
		}
		if cfg.ZipfS == 0 {
			cfg.ZipfS = DefaultZipfS
		}
		if cfg.Mix.IsZero() {
			cfg.Mix = DefaultOpMix()
		}
		if !cfg.Mix.valid() {
			panic(fmt.Sprintf("bonnie: op mix %v must be non-negative and sum to 100", cfg.Mix))
		}
	}
	return cfg
}

// chunkFor is the size of the call that starts rem bytes before the end
// of its stream: a whole chunk, or the partial final one.
func chunkFor(rem int64) int { return int(min(rem, chunkSize)) }

// runChunks is the loop every chunk workload runs. It visits the chunks
// of the file front to back, or in chunkPerm's order (seeded by the
// worker's index, so concurrent workers visit their files in distinct
// deterministic orders), and reads, writes, or reads then writes back
// each one as one traced call. After the k'th call maybeFsync applies
// the group-commit cadence, which normalize zeroes for the read-only
// workloads.
func runChunks(w *worker, wl *workload) {
	chunks := chunkCount(w.cfg)
	var perm []int
	if wl.random {
		perm = chunkPerm(w.s, w.index, chunks)
	}
	for k := 0; k < chunks; k++ {
		idx := k
		if perm != nil {
			idx = perm[k]
		}
		off := int64(idx) * chunkSize
		n := chunkFor(w.cfg.FileSize - off)
		t0 := w.s.Now()
		if wl.reads {
			w.read(w.main, off, n)
		}
		if wl.writes {
			w.main.WriteAt(w.p, off, n)
		}
		w.sample(t0)
		w.maybeFsync(k+1, w.main)
	}
}

// runMixed alternates chunk reads of the cold file, front to back, with
// chunk writes appended to the fresh file, half the budget each; when
// one stream runs out the other finishes alone. The writes take the
// group-commit cadence.
func runMixed(w *worker) {
	readSize := w.cfg.FileSize / 2
	writeSize := w.cfg.FileSize - readSize
	var readOff, writeOff int64
	writes := 0
	for i := 0; readOff < readSize || writeOff < writeSize; i++ {
		t0 := w.s.Now()
		if readOff < readSize && (i%2 == 0 || writeOff == writeSize) {
			n := chunkFor(readSize - readOff)
			w.read(w.main, readOff, n)
			readOff += int64(n)
			w.sample(t0)
			continue
		}
		n := chunkFor(writeSize - writeOff)
		w.aux.WriteAt(w.p, writeOff, n)
		writeOff += int64(n)
		w.sample(t0)
		writes++
		w.maybeFsync(writes, w.aux)
	}
}

// finishPhases stamps the I/O phase time and, unless skipped, runs the
// flush/close sequence (the fresh write-side file first for mixed, so
// the dirty data the workload created is what flush measures).
func (w *worker) finishPhases(start sim.Time) {
	p, s, fs, res := w.p, w.s, w.ioFiles, w.res
	res.WriteElapsed = s.Now() - start
	if w.cfg.SkipFlushClose {
		return
	}
	if fs.main == nil {
		// The zipf and shared workloads open and close their files inside
		// the I/O phase; there is nothing left to flush, so the later
		// phases coincide with the I/O phase.
		res.FlushElapsed = res.WriteElapsed
		res.CloseElapsed = res.WriteElapsed
		return
	}
	if fs.aux != nil {
		fs.aux.Flush(p)
	}
	fs.main.Flush(p)
	res.FlushElapsed = s.Now() - start
	if fs.aux != nil {
		fs.aux.Close(p)
	}
	fs.main.Close(p)
	res.CloseElapsed = s.Now() - start
}

// RunConcurrentWorkload drives n workers simultaneously, each performing
// the configured workload against its own files (§3.5: removing the BKL
// from the RPC layer should "allow concurrent writes to separate files
// ... from separate client CPUs"). open receives the worker index, so
// workers can land on distinct files of one machine or on distinct
// client machines of a multi-client test bed. Each worker runs the full
// I/O/flush/close sequence. With n == 1 this is the single-writer
// benchmark: the writer keeps target as its name.
func RunConcurrentWorkload(s *sim.Sim, target string, open func(worker int) vfs.OpenSet, n int, cfg Config) *ConcurrentResult {
	if n < 1 {
		panic("bonnie: need at least one writer")
	}
	if cfg.FileSize <= 0 {
		panic("bonnie: FileSize must be positive")
	}
	cfg = normalize(cfg)
	cfg.workers = n
	out := &ConcurrentResult{PerWriter: make([]*Result, n)}
	workers := make([]worker, n) // one allocation per run, not per worker
	finished := 0
	start := s.Now()
	for i := 0; i < n; i++ {
		i := i
		name := target
		if n > 1 {
			name = fmt.Sprintf("%s#%d", target, i)
		}
		res := &Result{
			Target:   name,
			Workload: cfg.Workload,
			FileSize: cfg.FileSize,
			Trace:    stats.NewTrace(target),
		}
		out.PerWriter[i] = res
		s.Go(name, func(p *sim.Proc) {
			w := &workers[i]
			*w = worker{ioFiles: openFiles(open(i), cfg), p: p, s: s, index: i, cfg: cfg, res: res}
			if wl := &workloads[cfg.Workload]; wl.body != nil {
				wl.body(w)
			} else {
				runChunks(w, wl)
			}
			w.finishPhases(start)
			out.TotalBytes += res.FileSize
			if t := s.Now() - start; t > out.Elapsed {
				out.Elapsed = t
			}
			finished++
		})
	}
	s.Run(cfg.TimeLimit)
	if finished != n {
		panic(fmt.Sprintf("bonnie: %s: %d of %d workers finished within %v (virtual)", target, finished, n, cfg.TimeLimit))
	}
	return out
}

// RunWorkload executes the configured workload as a single writer on the
// given simulator against files opened from open, driving the virtual
// clock until the run completes.
func RunWorkload(s *sim.Sim, target string, open vfs.OpenSet, cfg Config) *Result {
	return RunConcurrentWorkload(s, target, func(int) vfs.OpenSet { return open }, 1, cfg).PerWriter[0]
}
