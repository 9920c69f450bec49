package harness

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/nfsproto"
	"repro/internal/stats"
	"repro/internal/vfs"
)

// Result is one scenario's measurements, flattened for machine-readable
// output. Latencies are microseconds (the paper's unit); throughputs use
// the paper's decimal MB/KB. For multi-client scenarios the write/flush/
// close throughputs are per-client means; AggMBps, Fairness, and the
// min/max client columns describe the fleet.
type Result struct {
	Name    string `json:"name"`
	Server  string `json:"server"`
	Config  string `json:"config"`
	FileMB  int    `json:"file_mb"`
	WSize   int    `json:"wsize"`
	CPUs    int    `json:"cpus"`
	CacheMB int    `json:"cache_mb"`
	Jumbo   bool   `json:"jumbo"`
	Seed    int64  `json:"seed"`
	Repeat  int    `json:"repeat"`

	Calls     int     `json:"calls"`
	WriteMBps float64 `json:"write_mbps"`
	WriteKBps float64 `json:"write_kbps"`
	FlushMBps float64 `json:"flush_mbps"` // 0 when SkipFlushClose
	CloseMBps float64 `json:"close_mbps"` // 0 when SkipFlushClose

	MeanLatUs   float64 `json:"mean_lat_us"`
	MedianLatUs float64 `json:"median_lat_us"`
	P95LatUs    float64 `json:"p95_lat_us"`
	P99LatUs    float64 `json:"p99_lat_us"`
	MaxLatUs    float64 `json:"max_lat_us"`

	SoftFlushes int64 `json:"soft_flushes"` // writer-forced whole-inode flushes
	HardBlocks  int64 `json:"hard_blocks"`  // writer sleeps on the mount hard limit
	RPCsSent    int64 `json:"rpcs_sent"`
	Retransmits int64 `json:"retransmits"`

	// Transport axes (JSON only; the CSV schema is frozen, and these
	// also appear in Name at non-default values). Retransmits above
	// counts whole-RPC resends under UDP and stream segment resends
	// under TCP; DupReplies counts suppressed duplicate replies.
	Transport  string  `json:"transport"`
	Loss       float64 `json:"loss"`
	DupReplies int64   `json:"dup_replies"`
	LostFrames int64   `json:"lost_frames"` // fragments the loss model dropped

	// Read-path results (JSON only; the CSV schema is frozen, and the
	// workload also appears in Name at non-default values). For read
	// workloads the write_* throughput columns carry the I/O phase —
	// i.e. read throughput — as documented in docs/experiments.md.
	// ReadHits/ReadMisses are page-cache read lookups across all client
	// machines; a miss includes pages whose fetch was already in flight.
	Workload   string `json:"workload"`
	ReadRPCs   int64  `json:"read_rpcs"`
	ReadHits   int64  `json:"read_hits"`
	ReadMisses int64  `json:"read_misses"`

	// Durability results (JSON only; the CSV schema is frozen).
	// CommitRPCs counts COMMIT calls across all client machines (fsync or
	// close after UNSTABLE write replies); FsyncCount/FsyncUs are the
	// group-commit flushes the FsyncEvery cadence issued during the I/O
	// phase and the total virtual time spent inside them, summed over
	// writers.
	CommitRPCs int64   `json:"commit_rpcs"`
	FsyncCount int64   `json:"fsync_count"`
	FsyncUs    float64 `json:"fsync_us"`

	// Metadata-path results (JSON only; the CSV schema is frozen). RPC
	// counters sum over all client machines; the hit rate is hits over
	// all attribute-cache consultations (0 when the workload never
	// consults it). The zipf axes (file count, skew, mix, ac timeout)
	// appear in Name at non-default values.
	LookupRPCs       int64   `json:"lookup_rpcs"`
	GetattrRPCs      int64   `json:"getattr_rpcs"`
	CreateRPCs       int64   `json:"create_rpcs"`
	RemoveRPCs       int64   `json:"remove_rpcs"`
	AttrCacheHits    int64   `json:"attr_cache_hits"`
	AttrCacheMisses  int64   `json:"attr_cache_misses"`
	AttrCacheHitRate float64 `json:"attr_cache_hit_rate"`

	ServerNetMBps float64 `json:"server_net_mbps"` // sustained server ingest
	SendCPUUs     float64 `json:"send_cpu_us"`     // total sock_sendmsg CPU

	// Multi-client scale-out metrics (CSV columns appended after the
	// original schema). CacheBytes is the exact per-machine cache limit
	// (CacheMB truncates sub-MiB limits). AggMBps is total bytes over
	// the span until the last client finished; Fairness is Jain's index
	// over the per-client throughputs. For Clients == 1 these collapse
	// to the single client's throughput and 1.0.
	Clients       int     `json:"clients"`
	CacheBytes    int64   `json:"cache_bytes"`
	AggMBps       float64 `json:"agg_mbps"`
	Fairness      float64 `json:"fairness"`
	MinClientMBps float64 `json:"min_client_mbps"`
	MaxClientMBps float64 `json:"max_client_mbps"`

	// Cache-coherence results (JSON only; the CSV schema is frozen). The
	// consistency mode, writer percentage, and read lag also appear in
	// Name at non-default values. StaleReads counts page-cache hits
	// served during opens that skipped revalidation while the server's
	// change counter had already moved on; Invalidations counts cached
	// inodes dropped on change mismatch (WCC pre-op or open-time
	// revalidation); ChangeBumps is the server's total change-attribute
	// increments — the ground-truth write traffic the clients' counters
	// are judged against.
	Consistency   string `json:"consistency"`
	StaleReads    int64  `json:"stale_reads"`
	Invalidations int64  `json:"invalidations"`
	ChangeBumps   int64  `json:"change_bumps"`

	// Slot-table convoying (JSON only; the CSV schema is frozen).
	// SlotWaits counts RPCs across all client machines that found their
	// transport's slot table full and queued; SlotWaitUs is the total
	// virtual time spent queued. At fleet scale these expose whether the
	// server or the per-client slot table is the bottleneck.
	SlotWaits  int64   `json:"slot_waits"`
	SlotWaitUs float64 `json:"slot_wait_us"`

	// PerClientMBps is each client machine's throughput (write-phase, or
	// through close when the scenario runs the full sequence), in
	// machine order.
	PerClientMBps []float64 `json:"per_client_mbps"`

	// Scenario, Trace, and SendCPU carry the full inputs, the raw
	// per-call latency trace, and the exact sock_sendmsg total for
	// programmatic consumers; they are excluded from serialized output.
	// For Clients > 1 the trace is the per-writer traces concatenated in
	// machine order: distribution statistics (Summary, histograms) are
	// valid, but order-sensitive analyses (Slope, SpikePeriod, QuietGap)
	// are not — each writer's call sequence restarts partway through.
	Scenario Scenario      `json:"-"`
	Trace    *stats.Trace  `json:"-"`
	SendCPU  time.Duration `json:"-"`
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// RunScenario executes one scenario on a fresh, private test bed. It is
// safe to call concurrently: nothing is shared between invocations. With
// Clients > 1 it drives one bonnie writer per client machine in a single
// simulation, all against the shared server.
func RunScenario(sc Scenario) Result {
	return RunScenarioOn(sc, nil)
}

// RunScenarioOn is RunScenario with a prepare hook: after the test bed is
// assembled and before the workload starts, prepare may schedule
// virtual-time events against it (the chaos engine injects faults this
// way). A nil prepare is RunScenario. The simulation is closed when
// RunScenarioOn returns: a test bed the hook kept can be read, not run.
func RunScenarioOn(sc Scenario, prepare func(*nfssim.Testbed)) Result {
	clients := sc.Clients
	if clients < 1 {
		clients = 1
	}
	opts := nfssim.Options{
		Seed:       sc.Seed,
		Server:     sc.Server,
		Client:     sc.Config.Config,
		Clients:    clients,
		ClientCPUs: sc.ClientCPUs,
		CacheLimit: sc.CacheLimit,
		Jumbo:      sc.Jumbo,
		Transport:  sc.Transport,
		Loss:       sc.Loss,
		NetJitter:  sc.NetJitter,
		// A workload whose workers share a file needs every machine
		// on the same export.
		SharedNamespace: sc.Workload.SharedExport(),
	}
	opts.Client.Consistency = sc.Consistency
	if sc.WSize != 0 {
		opts.Client.WSize = sc.WSize
	}
	if sc.AcTimeout != 0 {
		if sc.AcTimeout < 0 {
			opts.Client.AcRegMin = core.AcOff
		} else {
			// A positive timeout pins the window: no adaptive aging.
			opts.Client.AcRegMin = sc.AcTimeout
			opts.Client.AcRegMax = sc.AcTimeout
		}
	}
	tb := nfssim.NewTestbed(opts)
	// The scenario ends here: its coroutine processes (nfs_flushd and
	// the other client daemons) are still parked, and would keep the
	// whole test bed reachable.
	defer tb.Sim.Close()
	if prepare != nil {
		prepare(tb)
	}
	bcfg := bonnie.Config{
		FileSize:        int64(sc.FileMB) << 20,
		Workload:        sc.Workload,
		FsyncEvery:      sc.FsyncEvery,
		FileCount:       sc.FileCount,
		ZipfS:           sc.ZipfS,
		Mix:             sc.Mix,
		SharedWriterPct: sc.SharedWriterPct,
		SharedReadLag:   sc.SharedReadLag,
		TimeLimit:       sc.TimeLimit,
		SkipFlushClose:  sc.SkipFlushClose,
	}

	out := Result{
		Name:    sc.Name(),
		Server:  sc.Server.String(),
		Config:  sc.Config.Name,
		FileMB:  sc.FileMB,
		WSize:   opts.Client.WSize,
		CPUs:    sc.ClientCPUs,
		CacheMB: int(sc.CacheLimit >> 20),
		Jumbo:   sc.Jumbo,
		Seed:    sc.Seed,
		Repeat:  sc.Repeat,

		Clients:    clients,
		CacheBytes: sc.CacheLimit,

		Transport:   sc.Transport.String(),
		Loss:        sc.Loss,
		Workload:    sc.Workload.String(),
		Consistency: sc.Consistency.String(),

		Scenario: sc,
	}

	res := bonnie.RunConcurrentWorkload(tb.Sim, sc.Name(),
		func(i int) vfs.OpenSet { return tb.Machines[i].OpenSet() }, clients, bcfg)
	var writeSum, kbSum, flushSum, closeSum float64
	for _, w := range res.PerWriter {
		out.Calls += w.Calls
		writeSum += w.WriteMBps()
		kbSum += w.WriteKBps()
		flushSum += w.FlushMBps()
		closeSum += w.CloseMBps()
		out.FsyncCount += int64(w.FsyncCount)
		out.FsyncUs += usec(w.FsyncTime)
		out.PerClientMBps = append(out.PerClientMBps, clientMBps(w, sc.SkipFlushClose))
	}
	n := float64(clients)
	out.WriteMBps = writeSum / n
	out.WriteKBps = kbSum / n
	out.FlushMBps = flushSum / n
	out.CloseMBps = closeSum / n
	out.Trace = mergeTraces(sc.Name(), res.PerWriter)
	out.AggMBps = res.AggregateMBps()
	out.Fairness = stats.JainFairness(out.PerClientMBps)
	out.MinClientMBps = slices.Min(out.PerClientMBps)
	out.MaxClientMBps = slices.Max(out.PerClientMBps)

	sum := out.Trace.Summary()
	out.MeanLatUs = usec(sum.Mean)
	out.MedianLatUs = usec(sum.Median)
	out.P95LatUs = usec(sum.P95)
	out.P99LatUs = usec(sum.P99)
	out.MaxLatUs = usec(sum.Max)
	out.SendCPU = tb.Sim.Profiler().Total("sock_sendmsg")
	out.SendCPUUs = usec(out.SendCPU)

	for _, m := range tb.Machines {
		if m.Client != nil {
			out.SoftFlushes += m.Client.SoftFlushes
			out.HardBlocks += m.Client.HardBlocks
			out.AttrCacheHits += m.Client.AttrCacheHits
			out.AttrCacheMisses += m.Client.AttrCacheMisses
			out.StaleReads += m.Client.StaleReads
			out.Invalidations += m.Client.Invalidations
		}
		out.ReadHits += m.Cache.ReadHits
		out.ReadMisses += m.Cache.ReadMisses
		if m.Transport != nil {
			st := m.Transport.Stats()
			out.RPCsSent += st.ByProc[nfsproto.ProcWrite]
			out.ReadRPCs += st.ByProc[nfsproto.ProcRead]
			out.CommitRPCs += st.ByProc[nfsproto.ProcCommit]
			out.LookupRPCs += st.ByProc[nfsproto.ProcLookup]
			out.GetattrRPCs += st.ByProc[nfsproto.ProcGetattr]
			out.CreateRPCs += st.ByProc[nfsproto.ProcCreate]
			out.RemoveRPCs += st.ByProc[nfsproto.ProcRemove]
			out.Retransmits += st.Retransmits
			out.DupReplies += st.DuplicateReplies
			out.SlotWaits += st.SlotWaits
			out.SlotWaitUs += usec(time.Duration(st.SlotWaitTime))
		}
	}
	if total := out.AttrCacheHits + out.AttrCacheMisses; total > 0 {
		out.AttrCacheHitRate = float64(out.AttrCacheHits) / float64(total)
	}
	out.LostFrames = tb.Net.Totals().FramesDropped
	if tb.Server != nil {
		out.ServerNetMBps = tb.Server.NetworkThroughputMBps()
		out.ChangeBumps = tb.Server.Names().ChangeBumps
	}
	return out
}

// clientMBps is one writer's end-to-end throughput: through close for
// full runs, write-phase only otherwise — the quantity the fairness
// index and per-client columns report.
func clientMBps(r *bonnie.Result, skipFlushClose bool) float64 {
	if skipFlushClose {
		return r.WriteMBps()
	}
	return r.CloseMBps()
}

// mergeTraces concatenates the writers' per-call traces in machine
// order. A lone writer's trace is returned as is, not copied.
func mergeTraces(name string, writers []*bonnie.Result) *stats.Trace {
	if len(writers) == 1 {
		return writers[0].Trace
	}
	trace := stats.NewTrace(name)
	for _, w := range writers {
		for _, s := range w.Trace.Samples() {
			trace.Add(s)
		}
	}
	return trace
}

// Runner executes scenarios across a worker pool. Each worker builds its
// own test bed per scenario, so there is no shared simulator state; the
// result order is the scenario order regardless of worker count or
// completion interleaving.
type Runner struct {
	// Workers is the pool size (default runtime.GOMAXPROCS(0)).
	Workers int
	// OnResult, if set, is called with each Result in strict scenario
	// order as soon as it and all its predecessors have completed —
	// streaming output stays byte-identical across worker counts.
	OnResult func(Result)
}

// Run executes every scenario and returns the results in scenario order.
// It drops each Result's raw per-call latency Trace (one sample per
// write; ~460 KB for a 450 MB run): the latency percentiles are already
// flattened into the Result, and a large grid would otherwise pin every
// trace until the sweep ends. RunScenario returns the trace for
// single-run callers.
func (r *Runner) Run(scenarios []Scenario) []Result {
	return Ordered(len(scenarios), r.Workers, func(i int) Result {
		res := RunScenario(scenarios[i])
		res.Trace = nil
		return res
	}, r.OnResult)
}

// Ordered computes run(0) … run(n-1) across a pool of workers (<= 0
// means runtime.GOMAXPROCS(0)) and returns the values in index order.
// If emit is set, it is called with each value in strict index order as
// soon as that value and all its predecessors are done, so a caller
// streaming output sees the same sequence whether workers is 1 or 64.
func Ordered[T any](n, workers int, run func(i int) T, emit func(T)) []T {
	if n == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	out := make([]T, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64 // the next index a worker claims
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				out[i] = run(i)
				close(done[i])
			}
		}()
	}
	for i := range n {
		<-done[i]
		if emit != nil {
			emit(out[i])
		}
	}
	wg.Wait()
	return out
}
