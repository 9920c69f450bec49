package bonnie

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// fakeFile is a deterministic vfs.File: each operation costs a fixed
// latency, flush and close cost fixed extras.
type fakeFile struct {
	s          *sim.Sim
	perWrite   sim.Time
	perRead    sim.Time
	flushCost  sim.Time
	closeCost  sim.Time
	size       int64
	readPos    int64
	reads      int
	rewrites   int
	flushes    int
	flushed    bool
	closedOnce bool

	// writeOffsets/readOffsets record the per-call offsets, so the
	// random-workload tests can check permutation coverage and
	// determinism.
	writeOffsets []int64
	readOffsets  []int64
}

func (f *fakeFile) Write(p *sim.Proc, n int) {
	f.WriteAt(p, f.size, n)
}
func (f *fakeFile) WriteAt(p *sim.Proc, off int64, n int) {
	p.Sleep(f.perWrite)
	f.rewrites++
	f.writeOffsets = append(f.writeOffsets, off)
	if end := off + int64(n); end > f.size {
		f.size = end
	}
}
func (f *fakeFile) Read(p *sim.Proc, n int) int {
	got := f.ReadAt(p, f.readPos, n)
	f.readPos += int64(got)
	return got
}
func (f *fakeFile) ReadAt(p *sim.Proc, off int64, n int) int {
	p.Sleep(f.perRead)
	f.reads++
	f.readOffsets = append(f.readOffsets, off)
	if rem := f.size - off; rem < int64(n) {
		n = int(rem)
	}
	if n < 0 {
		n = 0
	}
	return n
}
func (f *fakeFile) Flush(p *sim.Proc) { p.Sleep(f.flushCost); f.flushes++; f.flushed = true }
func (f *fakeFile) Close(p *sim.Proc) { p.Sleep(f.closeCost); f.closedOnce = true }
func (f *fakeFile) Size() int64       { return f.size }

// fakeOpenSet returns an OpenSet over fakeFiles, recording the files it
// opened.
func fakeOpenSet(s *sim.Sim, perWrite, perRead sim.Time, opened *[]*fakeFile) vfs.OpenSet {
	newFile := func(size int64) *fakeFile {
		ff := &fakeFile{s: s, perWrite: perWrite, perRead: perRead, size: size}
		*opened = append(*opened, ff)
		return ff
	}
	return vfs.OpenSet{
		Fresh:    func() vfs.File { return newFile(0) },
		Existing: func(size int64) vfs.File { return newFile(size) },
	}
}

// freshSet is an OpenSet whose every fresh open returns f.
func freshSet(f vfs.File) vfs.OpenSet {
	return vfs.OpenSet{Fresh: func() vfs.File { return f }}
}

func TestRunMeasuresPhases(t *testing.T) {
	s := sim.New(1)
	ff := &fakeFile{s: s, perWrite: 100 * time.Microsecond, flushCost: 10 * time.Millisecond, closeCost: 5 * time.Millisecond}
	res := RunWorkload(s, "fake", freshSet(ff), Config{FileSize: 1 << 20})
	if res.Calls != 128 {
		t.Fatalf("calls = %d, want 128", res.Calls)
	}
	if res.WriteElapsed != 128*100*time.Microsecond {
		t.Fatalf("write elapsed = %v", res.WriteElapsed)
	}
	if res.FlushElapsed != res.WriteElapsed+10*time.Millisecond {
		t.Fatalf("flush elapsed = %v", res.FlushElapsed)
	}
	if res.CloseElapsed != res.FlushElapsed+5*time.Millisecond {
		t.Fatalf("close elapsed = %v", res.CloseElapsed)
	}
	if !ff.flushed || !ff.closedOnce {
		t.Fatal("flush/close not invoked")
	}
	// Throughputs are cumulative-from-start, so write > flush > close.
	if !(res.WriteMBps() > res.FlushMBps() && res.FlushMBps() > res.CloseMBps()) {
		t.Fatalf("throughput ordering wrong: %v %v %v", res.WriteMBps(), res.FlushMBps(), res.CloseMBps())
	}
	if res.Trace.Len() != 128 {
		t.Fatalf("trace samples = %d", res.Trace.Len())
	}
	if got := res.Trace.Samples()[0]; got != 100*time.Microsecond {
		t.Fatalf("latency sample = %v", got)
	}
}

func TestRunSkipFlushClose(t *testing.T) {
	s := sim.New(1)
	ff := &fakeFile{s: s, perWrite: time.Microsecond}
	res := RunWorkload(s, "fake", freshSet(ff), Config{FileSize: 16384, SkipFlushClose: true})
	if ff.flushed || ff.closedOnce {
		t.Fatal("flush/close should be skipped")
	}
	if res.FlushElapsed != 0 || res.CloseElapsed != 0 {
		t.Fatal("phase times recorded despite skip")
	}
}

func TestRunPartialFinalChunk(t *testing.T) {
	s := sim.New(1)
	ff := &fakeFile{s: s, perWrite: time.Microsecond}
	res := RunWorkload(s, "fake", freshSet(ff), Config{FileSize: 8192 + 100})
	if res.Calls != 2 {
		t.Fatalf("calls = %d", res.Calls)
	}
	if ff.size != 8292 {
		t.Fatalf("wrote %d bytes", ff.size)
	}
}

func TestRunTimeLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on timeout")
		}
	}()
	s := sim.New(1)
	ff := &fakeFile{s: s, perWrite: time.Hour}
	RunWorkload(s, "fake", freshSet(ff), Config{FileSize: 1 << 20, TimeLimit: time.Second})
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunWorkload(sim.New(1), "fake", vfs.OpenSet{}, Config{FileSize: 0})
}

func TestResultString(t *testing.T) {
	s := sim.New(1)
	ff := &fakeFile{s: s, perWrite: time.Microsecond}
	res := RunWorkload(s, "fake-target", freshSet(ff), Config{FileSize: 16384})
	out := res.String()
	for _, want := range []string{"fake-target", "write:", "flush:", "close:", "latency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("result string missing %q: %s", want, out)
		}
	}
}

func TestRunConcurrent(t *testing.T) {
	s := sim.New(1)
	open := func(int) vfs.OpenSet {
		return freshSet(&fakeFile{s: s, perWrite: 10 * time.Microsecond, flushCost: time.Millisecond})
	}
	res := RunConcurrentWorkload(s, "multi", open, 3, Config{FileSize: 1 << 20})
	if len(res.PerWriter) != 3 {
		t.Fatalf("writers = %d", len(res.PerWriter))
	}
	if res.TotalBytes != 3<<20 {
		t.Fatalf("total = %d", res.TotalBytes)
	}
	for _, w := range res.PerWriter {
		if w.Calls != 128 {
			t.Fatalf("writer calls = %d", w.Calls)
		}
	}
	if res.AggregateMBps() <= 0 {
		t.Fatal("no aggregate throughput")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestWorkloadStringsRoundTrip(t *testing.T) {
	all := []Workload{WorkloadWrite, WorkloadRewrite, WorkloadRead, WorkloadMixed,
		WorkloadRandRead, WorkloadRandWrite, WorkloadDB}
	for _, w := range all {
		got, err := ParseWorkload(w.String())
		if err != nil || got != w {
			t.Fatalf("ParseWorkload(%q) = %v, %v", w.String(), got, err)
		}
	}
	if WorkloadWrite.NeedsExisting() {
		t.Fatal("write workload should not need an existing file")
	}
	for _, w := range all[1:] {
		if !w.NeedsExisting() {
			t.Fatalf("%s workload should need an existing file", w)
		}
	}
	for _, w := range all {
		random := w == WorkloadRandRead || w == WorkloadRandWrite || w == WorkloadDB
		if w.Random() != random {
			t.Fatalf("%s.Random() = %v", w, w.Random())
		}
	}
}

// ParseWorkload must reject unknown names with an error that names the
// full vocabulary, and never panic.
func TestParseWorkloadErrors(t *testing.T) {
	for _, bad := range []string{"", "scan", "WRITE", "rand", "random", "write,read", " write"} {
		w, err := ParseWorkload(bad)
		if err == nil {
			t.Fatalf("ParseWorkload(%q) = %v, want error", bad, w)
		}
		for _, name := range []string{"write", "rewrite", "read", "mixed", "randread", "randwrite", "db"} {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error %q does not name workload %q", err, name)
			}
		}
	}
}

// A random-write run must touch every chunk exactly once, in an order
// that is not sequential but is identical across reruns with the same
// seed — and differs across seeds and across workers.
func TestRandWriteWorkloadPermutation(t *testing.T) {
	offsets := func(seed int64, worker int) []int64 {
		s := sim.New(seed)
		var opened []*fakeFile
		open := fakeOpenSet(s, 10*time.Microsecond, 0, &opened)
		if worker == 0 {
			RunWorkload(s, "rw", open, Config{FileSize: 1 << 20, Workload: WorkloadRandWrite})
		} else {
			RunConcurrentWorkload(s, "rw", func(int) vfs.OpenSet { return open }, worker+1,
				Config{FileSize: 1 << 20, Workload: WorkloadRandWrite})
		}
		return opened[len(opened)-1].writeOffsets
	}
	a := offsets(1, 0)
	if len(a) != 128 {
		t.Fatalf("wrote %d chunks, want 128", len(a))
	}
	// Every chunk exactly once.
	seen := make(map[int64]bool, len(a))
	sequential := true
	for i, off := range a {
		if off%8192 != 0 || off < 0 || off >= 1<<20 {
			t.Fatalf("offset %d not chunk-aligned in file", off)
		}
		if seen[off] {
			t.Fatalf("chunk at %d written twice", off)
		}
		seen[off] = true
		if off != int64(i)*8192 {
			sequential = false
		}
	}
	if sequential {
		t.Fatal("random workload visited chunks in sequential order")
	}
	// Same seed, same permutation; different seed or worker, different.
	if b := offsets(1, 0); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different permutations")
	}
	if b := offsets(2, 0); reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced the same permutation")
	}
	if b := offsets(1, 1); reflect.DeepEqual(a, b) {
		t.Fatal("different workers produced the same permutation")
	}
}

// A random read visits every chunk exactly once via ReadAt and never
// moves the sequential read position.
func TestRandReadWorkload(t *testing.T) {
	s := sim.New(1)
	var opened []*fakeFile
	open := fakeOpenSet(s, 0, 10*time.Microsecond, &opened)
	res := RunWorkload(s, "rr", open, Config{FileSize: 1 << 20, Workload: WorkloadRandRead})
	if res.Calls != 128 {
		t.Fatalf("calls = %d", res.Calls)
	}
	ff := opened[0]
	if ff.reads != 128 || ff.readPos != 0 {
		t.Fatalf("reads = %d, readPos = %d; ReadAt must not move the position", ff.reads, ff.readPos)
	}
	seen := make(map[int64]bool)
	for _, off := range ff.readOffsets {
		if seen[off] {
			t.Fatalf("chunk at %d read twice", off)
		}
		seen[off] = true
	}
	if len(seen) != 128 {
		t.Fatalf("covered %d distinct chunks, want 128", len(seen))
	}
}

// The db workload must fsync on the FsyncEvery cadence, recording the
// count and the time spent, with the documented default.
func TestDBWorkloadFsyncCadence(t *testing.T) {
	s := sim.New(1)
	var opened []*fakeFile
	open := fakeOpenSet(s, 10*time.Microsecond, 0, &opened)
	flushCost := 3 * time.Millisecond
	openWithFlush := vfs.OpenSet{
		Fresh: open.Fresh,
		Existing: func(size int64) vfs.File {
			f := open.Existing(size).(*fakeFile)
			f.flushCost = flushCost
			return f
		},
	}
	// 256 chunks, fsync every 64: 4 group commits during the I/O phase,
	// plus the final flush/close sequence.
	res := RunWorkload(s, "db", openWithFlush, Config{
		FileSize: 2 << 20, Workload: WorkloadDB, FsyncEvery: 64,
	})
	if res.FsyncCount != 4 {
		t.Fatalf("fsync count = %d, want 4", res.FsyncCount)
	}
	if res.FsyncTime != 4*flushCost {
		t.Fatalf("fsync time = %v, want %v", res.FsyncTime, 4*flushCost)
	}
	if got := opened[0].flushes; got != 5 { // 4 group commits + finishPhases
		t.Fatalf("file flushed %d times, want 5", got)
	}
	// The I/O phase includes the group commits; the trace does not.
	if res.WriteElapsed != 256*10*time.Microsecond+4*flushCost {
		t.Fatalf("write elapsed = %v", res.WriteElapsed)
	}
	if res.Trace.Summary().Max >= flushCost {
		t.Fatal("group-commit latency leaked into the per-call trace")
	}
	// Unset cadence defaults to DefaultDBFsyncEvery for db only.
	res = RunWorkload(s, "db", openWithFlush, Config{FileSize: 2 << 20, Workload: WorkloadDB})
	if want := 256 / DefaultDBFsyncEvery; res.FsyncCount != want {
		t.Fatalf("default cadence fsync count = %d, want %d", res.FsyncCount, want)
	}
	// Non-db workloads never fsync unless asked...
	res = RunWorkload(s, "w", openWithFlush, Config{FileSize: 2 << 20})
	if res.FsyncCount != 0 {
		t.Fatalf("write workload issued %d fsyncs without FsyncEvery", res.FsyncCount)
	}
	// ...and honor an explicit cadence.
	res = RunWorkload(s, "w", openWithFlush, Config{FileSize: 2 << 20, FsyncEvery: 128})
	if res.FsyncCount != 2 {
		t.Fatalf("write workload with FsyncEvery=128 issued %d fsyncs, want 2", res.FsyncCount)
	}
}

func TestNegativeFsyncEveryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := sim.New(1)
	ff := &fakeFile{s: s}
	RunWorkload(s, "x", freshSet(ff), Config{FileSize: 8192, FsyncEvery: -1})
}

func TestReadWorkload(t *testing.T) {
	s := sim.New(1)
	var opened []*fakeFile
	open := fakeOpenSet(s, 0, 50*time.Microsecond, &opened)
	res := RunWorkload(s, "rd", open, Config{FileSize: 1 << 20, Workload: WorkloadRead})
	if len(opened) != 1 || opened[0].size != 1<<20 {
		t.Fatalf("opened = %+v", opened)
	}
	if res.Calls != 128 || opened[0].reads != 128 {
		t.Fatalf("calls = %d, reads = %d, want 128", res.Calls, opened[0].reads)
	}
	if res.WriteElapsed != 128*50*time.Microsecond {
		t.Fatalf("read phase elapsed = %v", res.WriteElapsed)
	}
	if !opened[0].flushed || !opened[0].closedOnce {
		t.Fatal("flush/close not invoked")
	}
	if res.Workload != WorkloadRead {
		t.Fatalf("workload = %v", res.Workload)
	}
}

func TestRewriteWorkload(t *testing.T) {
	s := sim.New(1)
	var opened []*fakeFile
	open := fakeOpenSet(s, 30*time.Microsecond, 20*time.Microsecond, &opened)
	res := RunWorkload(s, "rw", open, Config{FileSize: 1 << 20, Workload: WorkloadRewrite})
	if res.Calls != 128 {
		t.Fatalf("calls = %d", res.Calls)
	}
	ff := opened[0]
	if ff.reads != 128 || ff.rewrites != 128 {
		t.Fatalf("reads = %d rewrites = %d, want 128 each", ff.reads, ff.rewrites)
	}
	// Each rewrite call is one read + one in-place write.
	if res.WriteElapsed != 128*50*time.Microsecond {
		t.Fatalf("rewrite phase elapsed = %v", res.WriteElapsed)
	}
	if ff.size != 1<<20 {
		t.Fatalf("rewrite grew the file to %d", ff.size)
	}
}

func TestMixedWorkload(t *testing.T) {
	s := sim.New(1)
	var opened []*fakeFile
	open := fakeOpenSet(s, 30*time.Microsecond, 30*time.Microsecond, &opened)
	res := RunWorkload(s, "mx", open, Config{FileSize: 1 << 20, Workload: WorkloadMixed})
	if len(opened) != 2 {
		t.Fatalf("mixed opened %d files, want 2", len(opened))
	}
	rd, wr := opened[0], opened[1]
	if rd.size != 512<<10 {
		t.Fatalf("read file size = %d, want half the total", rd.size)
	}
	// Half the bytes read from the existing file, half written fresh.
	if rd.reads != 64 || wr.size != 512<<10 {
		t.Fatalf("reads = %d, written = %d", rd.reads, wr.size)
	}
	if res.Calls != 128 {
		t.Fatalf("calls = %d", res.Calls)
	}
	// Both files flush and close.
	if !rd.flushed || !wr.flushed || !rd.closedOnce || !wr.closedOnce {
		t.Fatal("flush/close not invoked on both files")
	}
}

func TestWorkloadWithoutExistingOpenerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := sim.New(1)
	ff := &fakeFile{s: s}
	RunWorkload(s, "rd", vfs.OpenSet{Fresh: func() vfs.File { return ff }},
		Config{FileSize: 1 << 20, Workload: WorkloadRead})
}

func TestRunConcurrentWorkloadRead(t *testing.T) {
	s := sim.New(1)
	var opened []*fakeFile
	res := RunConcurrentWorkload(s, "multi",
		func(int) vfs.OpenSet { return fakeOpenSet(s, 0, 10*time.Microsecond, &opened) },
		3, Config{FileSize: 1 << 20, Workload: WorkloadRead})
	if len(res.PerWriter) != 3 || len(opened) != 3 {
		t.Fatalf("writers = %d, opened = %d", len(res.PerWriter), len(opened))
	}
	if res.TotalBytes != 3<<20 {
		t.Fatalf("total = %d", res.TotalBytes)
	}
	for _, w := range res.PerWriter {
		if w.Calls != 128 {
			t.Fatalf("worker calls = %d", w.Calls)
		}
	}
}

func TestRunConcurrentBadArgs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RunConcurrentWorkload(sim.New(1), "x", nil, 0, Config{FileSize: 1})
}

// fakeNames is a deterministic vfs.Namespace over one flat directory of
// fakeFiles: OpenByName hands every caller the same file object, so the
// shared workload's workers genuinely collide on it.
type fakeNames struct {
	s        *sim.Sim
	perWrite sim.Time
	perRead  sim.Time
	files    map[string]*fakeFile
}

func (n *fakeNames) OpenByName(p *sim.Proc, name string) vfs.File {
	if n.files == nil {
		n.files = make(map[string]*fakeFile)
	}
	f, ok := n.files[name]
	if !ok {
		f = &fakeFile{s: n.s, perWrite: n.perWrite, perRead: n.perRead}
		n.files[name] = f
	}
	return f
}
func (n *fakeNames) Stat(p *sim.Proc, name string) (int64, bool) {
	f, ok := n.files[name]
	if !ok {
		return 0, false
	}
	return f.size, true
}
func (n *fakeNames) Remove(p *sim.Proc, name string) bool {
	_, ok := n.files[name]
	delete(n.files, name)
	return ok
}

func TestSharedWriterPlacement(t *testing.T) {
	cases := []struct {
		n, pct  int
		writers []int
	}{
		{1, 50, []int{0}}, // rounding yields no writer; worker 0 steps in
		{2, 50, []int{1}}, // odd indices write at 50%
		{4, 50, []int{1, 3}},
		{4, 25, []int{3}},
		{4, 100, []int{0, 1, 2, 3}},
		{3, 10, []int{0}}, // 3*10/100 = 0 writers; worker 0 steps in
	}
	for _, c := range cases {
		var got []int
		for w := 0; w < c.n; w++ {
			if sharedIsWriter(w, c.n, c.pct) {
				got = append(got, w)
			}
		}
		if !reflect.DeepEqual(got, c.writers) {
			t.Errorf("writers(n=%d, pct=%d) = %v, want %v", c.n, c.pct, got, c.writers)
		}
		if p := sharedPrimer(c.n, c.pct); p != c.writers[0] {
			t.Errorf("primer(n=%d, pct=%d) = %d, want %d", c.n, c.pct, p, c.writers[0])
		}
	}
}

// TestSharedWorkload drives four workers (two writers, two readers under
// the default 50% split) at one shared fakeFile and checks the collision
// actually happens: one file, writer bytes cover it front to back,
// readers consume their full budget, flushes follow the cadence.
func TestSharedWorkload(t *testing.T) {
	s := sim.New(1)
	names := &fakeNames{s: s, perWrite: 100 * time.Microsecond, perRead: 10 * time.Microsecond}
	const size = 1 << 20
	res := RunConcurrentWorkload(s, "shared",
		func(int) vfs.OpenSet { return vfs.OpenSet{Names: names} },
		4, Config{FileSize: size, Workload: WorkloadShared})
	if len(names.files) != 1 {
		t.Fatalf("%d files created, want 1 (everyone shares)", len(names.files))
	}
	f := names.files[sharedFileName]
	span := int64(sharedSpanChunks(Config{FileSize: size})) * chunkSize
	if f.size != span {
		t.Fatalf("shared file size = %d, want the %d-byte span (budget/%d)", f.size, span, sharedPasses)
	}
	// Two writers x 128 chunks each, all offsets within the file.
	if f.rewrites != 2*128 {
		t.Fatalf("chunk writes = %d, want 256", f.rewrites)
	}
	for _, off := range f.writeOffsets {
		if off < 0 || off >= span {
			t.Fatalf("write offset %d outside the span [0, %d)", off, span)
		}
	}
	// Default cadence: flush every DefaultSharedFsyncEvery chunk writes.
	wantFlushes := 2 * (128 / DefaultSharedFsyncEvery)
	if f.flushes != wantFlushes {
		t.Fatalf("flushes = %d, want %d", f.flushes, wantFlushes)
	}
	if res.TotalBytes != 4*size {
		t.Fatalf("total bytes = %d, want %d (every worker moves its full budget)", res.TotalBytes, 4*size)
	}
	for i, w := range res.PerWriter {
		if w.FileSize != size {
			t.Errorf("worker %d moved %d bytes, want %d", i, w.FileSize, size)
		}
	}
}

// TestSharedSingleWorkerIsWriter pins the degenerate run: one worker
// must still produce the file (reader-only runs would hang polling).
func TestSharedSingleWorkerIsWriter(t *testing.T) {
	s := sim.New(1)
	names := &fakeNames{s: s, perWrite: 100 * time.Microsecond}
	res := RunWorkload(s, "shared1", vfs.OpenSet{Names: names},
		Config{FileSize: 1 << 18, Workload: WorkloadShared})
	span := int64(sharedSpanChunks(Config{FileSize: 1 << 18})) * chunkSize
	if f := names.files[sharedFileName]; f == nil || f.size != span {
		t.Fatalf("single worker did not prime the shared file to its %d-byte span: %+v", span, f)
	}
	if res.FileSize != 1<<18 {
		t.Fatalf("moved %d bytes, want %d", res.FileSize, 1<<18)
	}
}

// TestSharedReaderLagPacing checks SharedReadLag inserts virtual time
// between reader passes: with a lag the run takes strictly longer than
// without, and both complete.
func TestSharedReaderLagPacing(t *testing.T) {
	elapsed := func(lag sim.Time) sim.Time {
		s := sim.New(1)
		// Slow writes: the file primes slowly, so the reader needs several
		// partial passes — the inter-pass gap where the lag applies.
		names := &fakeNames{s: s, perWrite: time.Millisecond, perRead: 10 * time.Microsecond}
		res := RunConcurrentWorkload(s, "shared",
			func(int) vfs.OpenSet { return vfs.OpenSet{Names: names} },
			2, Config{FileSize: 1 << 19, Workload: WorkloadShared, SharedReadLag: lag})
		// Worker 0 is the reader (worker 1 writes at the default 50%
		// split); its I/O phase is where the lag accumulates.
		return res.PerWriter[0].WriteElapsed
	}
	without, with := elapsed(0), elapsed(50*time.Millisecond)
	if with <= without {
		t.Fatalf("lagged run (%v) not slower than back-to-back run (%v)", with, without)
	}
}
