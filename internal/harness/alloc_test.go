package harness

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/core"
	"repro/internal/racebuild"
)

// warmFleetMallocs is what one warm 16-client slow100 run allocates,
// 1,830 to 1,832 on go1.24 linux/amd64, plus 9% headroom. A run whose
// clients and transports each warm free lists of their own allocates
// 3,581.
const warmFleetMallocs = 2000

// A warm 16-client slow100 run takes its page requests and call records
// from the stocks the run before it handed on (sim.Stock) and allocates
// no more than warmFleetMallocs. mallocs counts every allocation, where
// testing.AllocsPerRun's truncated mean lets rare ones through.
func TestWarmFleetRunAllocations(t *testing.T) {
	if racebuild.Enabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	sc := Scenario{Server: nfssim.ServerSlow100, Config: ClientConfig{"enhanced", core.EnhancedConfig()},
		FileMB: 1, Clients: 16, TimeLimit: 2 * time.Hour, Seed: 1}
	const runs = 3
	n := mallocs(runs, func() { RunScenario(sc) }) / runs
	t.Logf("%d allocations per warm run", n)
	if n > warmFleetMallocs {
		t.Fatalf("a warm 16-client slow100 run made %d allocations, want at most %d", n, warmFleetMallocs)
	}
}

// mallocs counts the heap allocations of runs calls of f as a total.
// Like testing.AllocsPerRun it runs on one processor after one uncounted
// call, which warms the stocks and fills the processor's sync.Pool
// caches; the collector is off meanwhile, since a collection empties the
// pools.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
