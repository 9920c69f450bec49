package harness

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/sim"
)

// sharedGrid is the shared-workload sweep the golden CSV and the
// determinism test both expand: the enhanced client fleet on the filer,
// one 2 MB shared file among 4 clients, the writer share at its default
// and at 25%, crossed with the three consistency modes at a fixed 40 ms
// attribute-cache window.
func sharedGrid() Grid {
	return Grid{
		Servers:     []nfssim.ServerKind{nfssim.ServerFiler},
		Configs:     []ClientConfig{{"enhanced", core.EnhancedConfig()}},
		FileSizesMB: []int{2},
		Clients:     []int{4},
		Workloads:   []bonnie.Workload{bonnie.WorkloadShared},
		AcTimeouts:  []sim.Time{sim.Time(40 * time.Millisecond)},
		Sharings:    []int{50, 25},
		Consistencies: []core.ConsistencyMode{
			core.ConsistencyTTL, core.ConsistencyStrict, core.ConsistencyNoac,
		},
		SkipFlushClose: true,
	}
}

// The shared workload races writers against readers on one file, which
// is exactly where scheduling nondeterminism would show first: the CSV
// and JSON must come out byte-identical at any worker count and across
// reruns.
func TestSharedSweepDeterminism(t *testing.T) {
	scens := sharedGrid().Expand()
	r1 := (&Runner{Workers: 1}).Run(scens)
	r8 := (&Runner{Workers: 8}).Run(scens)
	if ResultsCSV(r1) != ResultsCSV(r8) {
		t.Fatal("shared CSV differs between 1 and 8 workers")
	}
	if ResultsJSON(r1) != ResultsJSON(r8) {
		t.Fatal("shared JSON differs between 1 and 8 workers")
	}
	again := (&Runner{Workers: 3}).Run(scens)
	if ResultsJSON(r1) != ResultsJSON(again) {
		t.Fatal("shared JSON differs across reruns")
	}
}

// testdata/golden_shared.csv pins the shared workload's wire behavior:
// the file was captured with
//
//	nfssweep -workload shared -sizes 2 -clients 4 -configs enhanced \
//	    -shared 50,25 -consistency ttl,strict,noac -actimeout 40ms \
//	    -format csv -quiet
//
// and any drift in the writer/reader interleaving, the revalidation
// clock, or the WCC plumbing shows up as a byte diff here.
func TestSharedSweepMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_shared.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		got := ResultsCSV((&Runner{Workers: workers}).Run(sharedGrid().Expand()))
		if got != string(want) {
			t.Fatalf("shared sweep (workers=%d) diverged from golden CSV:\n--- want ---\n%s--- got ---\n%s",
				workers, want, got)
		}
	}
}

// Writer/reader integrity under every consistency mode (run with -race
// in CI: the per-inode server locks and the worker pool are the shared
// state): the writers' whole span reaches the server with no holes, the
// server's change counter moves once per accepted mutation, and the
// stale-read accounting matches each mode's contract — zero under
// strict, nonzero under noac (and under ttl at this window).
func TestSharedWriterReaderIntegrity(t *testing.T) {
	const fileMB = 2
	const spanBytes = int64(fileMB) << 20 / 8 // bonnie's shared span: budget/8
	for _, mode := range []core.ConsistencyMode{
		core.ConsistencyTTL, core.ConsistencyStrict, core.ConsistencyNoac,
	} {
		sc := Scenario{
			Server:      nfssim.ServerFiler,
			Config:      ClientConfig{"enhanced", core.EnhancedConfig()},
			FileMB:      fileMB,
			Clients:     4,
			Workload:    bonnie.WorkloadShared,
			Consistency: mode,
			AcTimeout:   sim.Time(40 * time.Millisecond),
			Seed:        1,
		}
		var tb *nfssim.Testbed
		res := RunScenarioOn(sc, func(t *nfssim.Testbed) { tb = t })
		var files []*server.Inode
		for _, ino := range tb.Server.Names().Written() {
			files = append(files, ino)
		}
		if len(files) != 1 {
			t.Fatalf("%v: %d files saw writes, want the one shared file", mode, len(files))
		}
		cov := files[0].Received()
		if !cov.Contains(0, spanBytes) || cov.Total() != spanBytes {
			t.Fatalf("%v: server coverage %v, want the contiguous span [0, %d)", mode, cov, spanBytes)
		}
		bumps := tb.Server.Names().ChangeBumps
		if bumps == 0 {
			t.Fatalf("%v: writers mutated the file but the change counter never moved", mode)
		}
		if mode == core.ConsistencyStrict && res.StaleReads != 0 {
			t.Fatalf("strict: %d stale reads, want 0", res.StaleReads)
		}
		if mode != core.ConsistencyStrict && res.StaleReads == 0 {
			t.Fatalf("%v: no stale reads at a 40ms window; the accounting went dark", mode)
		}
	}
}
