package harness

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/racebuild"
	"repro/internal/rpcsim"
)

// Ceilings on what one warm run allocates, each about 9% above the
// counts measured on go1.24 linux/amd64 (warm run, three counted runs
// averaged). A run whose clients and transports each warm free lists of
// their own makes 3,581 allocations on the fleet; request lists,
// stream windows and traces regrown from empty every run take 290 KB on
// the fleet and 303 KB on the TCP run.
const (
	// 1,529 allocations and 154,338 bytes (1,561 and 158,178 when each
	// transport allocated its own XID table).
	warmFleetMallocs = 1700
	warmFleetBytes   = 172_000
	// 280 to 284 allocations and 53,008 to 55,445 bytes.
	warmTCPMallocs = 310
	warmTCPBytes   = 60_500
	// 272 allocations and 90,792 bytes.
	warmRandMallocs = 297
	warmRandBytes   = 99_000
)

// A warm 16-client slow100 run takes its page requests, call records
// and request-list arrays from the stocks the run before it handed on
// (sim.Stock), and sizes its latency traces once.
func TestWarmFleetRunAllocations(t *testing.T) {
	sc := Scenario{Server: nfssim.ServerSlow100, Config: ClientConfig{"enhanced", core.EnhancedConfig()},
		FileMB: 1, Clients: 16, TimeLimit: 2 * time.Hour, Seed: 1}
	checkWarmRun(t, sc, warmFleetMallocs, warmFleetBytes)
}

// A warm 16 MB random-write run on the nolimits client queues about
// 1,800 requests at once in its request list, whose blocks, and the
// bitmap of resident pages, come from the stock the run before it
// handed on.
func TestWarmRandomWriteRunAllocations(t *testing.T) {
	sc := Scenario{Server: nfssim.ServerFiler, Config: ClientConfig{"nolimits", core.NoLimitsConfig()},
		FileMB: 16, Workload: bonnie.WorkloadRandWrite, TimeLimit: 30 * time.Minute, Seed: 1}
	checkWarmRun(t, sc, warmRandMallocs, warmRandBytes)
}

// A warm TCP run at 1% loss also takes its stream endpoints' send
// windows, segment cuts, ready lists and segment buffers, and the
// network's in-flight records, from the stocks, so a window the seed's
// losses hold open does not regrow from empty.
func TestWarmLossyTCPRunAllocations(t *testing.T) {
	sc := Scenario{Config: ClientConfig{"enhanced", core.EnhancedConfig()}, FileMB: 10,
		Transport: rpcsim.TransportTCP, Loss: 0.01, Seed: 1}
	checkWarmRun(t, sc, warmTCPMallocs, warmTCPBytes)
}

// checkWarmRun fails t when a warm run of sc makes more than maxMallocs
// allocations or allocates more than maxBytes. It counts every
// allocation, where testing.AllocsPerRun's truncated mean lets rare
// ones through.
func checkWarmRun(t *testing.T, sc Scenario, maxMallocs, maxBytes uint64) {
	t.Helper()
	if racebuild.Enabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	const runs = 3
	n, b := allocs(runs, func() { RunScenario(sc) })
	n, b = n/runs, b/runs
	t.Logf("%s: %d allocations, %d bytes per warm run", sc.Name(), n, b)
	if n > maxMallocs || b > maxBytes {
		t.Fatalf("a warm %s run made %d allocations of %d bytes, want at most %d and %d", sc.Name(), n, b, maxMallocs, maxBytes)
	}
}

// allocs counts the heap allocations, and the bytes they took, of runs
// calls of f as totals. Like testing.AllocsPerRun it runs on one
// processor after one uncounted call, which warms the stocks and fills
// the processor's sync.Pool caches; the collector is off meanwhile,
// since a collection empties the pools.
func allocs(runs int, f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
