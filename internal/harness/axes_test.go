package harness

import (
	"regexp"
	"slices"
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/rpcsim"
)

// flagRE finds the flags an error names.
var flagRE = regexp.MustCompile(`-([a-z][a-z-]*)`)

// checkGrids lists the cross product of every axis's values, default
// included; a rule tells a default from anything else, so one other
// value per axis reaches every rule. The scalar knobs hold one value
// per grid, so the grids vary them.
func checkGrids() []Grid {
	stock, _ := ConfigByName("stock")
	enhanced, _ := ConfigByName("enhanced")
	base := Grid{
		Servers:       []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux, nfssim.ServerSlow100, nfssim.ServerNone},
		Configs:       []ClientConfig{stock, enhanced},
		FileSizesMB:   []int{1},
		WSizes:        []int{core.DefaultWSize, 32768},
		Jumbo:         []bool{false, true},
		Transports:    []rpcsim.TransportKind{rpcsim.TransportUDP, rpcsim.TransportTCP},
		LossRates:     []float64{0, 0.01},
		FileCounts:    []int{0, 100},
		ZipfSs:        []float64{0, bonnie.ZipfUniform},
		AcTimeouts:    []time.Duration{0, core.AcOff},
		Sharings:      []int{0, 25},
		Consistencies: []core.ConsistencyMode{core.ConsistencyTTL, core.ConsistencyStrict},
	}
	base.Workloads, _ = ParseList("write,rewrite,read,mixed,randread,randwrite,db,zipf,shared", bonnie.ParseWorkload)
	var grids []Grid
	for knobs := range 16 {
		g := base
		if knobs&1 != 0 {
			g.Mix = bonnie.DefaultOpMix()
		}
		if knobs&2 != 0 {
			g.ReadLag = 5 * time.Millisecond
		}
		if knobs&4 != 0 {
			g.FsyncEvery = 64
		}
		if knobs&8 != 0 {
			g.NetJitter = 200 * time.Microsecond
		}
		grids = append(grids, g)
	}
	return grids
}

// Check runs no simulation: across the whole cross product, each
// rejection names the flag it rejects and the flag that rules it out,
// and no accepted cell is one the simulator cannot run (zipf or shared
// on the local server) or keys an -fsync-every it ignores. Then a
// pairwise-covering subset of the accepted cells runs at 1 MB without a
// panic.
func TestCheckCrossProduct(t *testing.T) {
	isAxis := func(name string) bool {
		return slices.ContainsFunc(Axes, func(a Axis) bool { return a.Flag == name })
	}
	// values gives a cell's value on each varied dimension, for the
	// pairwise cover.
	values := func(sc Scenario) [16]any {
		return [16]any{sc.Server, sc.Config.Name, sc.WSize, sc.Jumbo, sc.Transport, sc.Loss,
			sc.Workload, sc.FileCount, sc.ZipfS, sc.AcTimeout, sc.SharedWriterPct,
			sc.Consistency, sc.Mix, sc.SharedReadLag, sc.FsyncEvery, sc.NetJitter}
	}
	type pair struct {
		i, j int
		a, b any
	}
	covered := map[pair]bool{}
	var cover []Scenario
	cells, rejected := 0, 0
	seen := map[string]bool{} // error texts already checked
	for _, g := range checkGrids() {
		for _, sc := range g.Expand() {
			cells++
			if err := sc.Check(); err != nil {
				rejected++
				if seen[err.Error()] {
					continue
				}
				seen[err.Error()] = true
				var named []string
				for _, m := range flagRE.FindAllStringSubmatch(err.Error(), -1) {
					if isAxis(m[1]) && !slices.Contains(named, m[1]) {
						named = append(named, m[1])
					}
				}
				if len(named) < 2 {
					t.Fatalf("%s: error %q names %d axis flags, want 2", sc.Key(), err, len(named))
				}
				continue
			}
			if sc.Server == nfssim.ServerNone && (sc.Workload == bonnie.WorkloadZipf || sc.Workload == bonnie.WorkloadShared) {
				t.Fatalf("%s accepted", sc.Key())
			}
			switch sc.Workload {
			case bonnie.WorkloadRead, bonnie.WorkloadRandRead, bonnie.WorkloadZipf:
				if sc.FsyncEvery > 0 { // these never flush mid-run
					t.Fatalf("%s accepted", sc.Key())
				}
			}
			v, adds := values(sc), false
			for i := range v {
				for j := i + 1; j < len(v); j++ {
					if p := (pair{i, j, v[i], v[j]}); !covered[p] {
						covered[p], adds = true, true
					}
				}
			}
			if adds {
				cover = append(cover, sc)
			}
		}
	}
	if rejected == 0 || rejected == cells {
		t.Fatalf("%d of %d cells rejected", rejected, cells)
	}
	t.Logf("%d cells, %d rejected; running %d that cover every accepted pair", cells, rejected, len(cover))
	for _, r := range (&Runner{Workers: 2}).Run(cover) {
		if r.Calls == 0 {
			t.Fatalf("%s made no calls", r.Name)
		}
	}
}

// The rules reject the cells the command line used to run as if the
// axis applied, naming both flags.
func TestCheckNamesBothFlags(t *testing.T) {
	for _, tc := range []struct {
		g    Grid
		want string
	}{
		{Grid{Servers: []nfssim.ServerKind{nfssim.ServerNone}, Workloads: []bonnie.Workload{bonnie.WorkloadZipf}},
			"-workload zipf needs an NFS server (-servers local has no namespace)"},
		{Grid{Servers: []nfssim.ServerKind{nfssim.ServerNone}, Transports: []rpcsim.TransportKind{rpcsim.TransportTCP}},
			"-transport tcp needs an NFS server (-servers local has no network)"},
		{Grid{Servers: []nfssim.ServerKind{nfssim.ServerNone}, AcTimeouts: []time.Duration{core.AcOff}},
			"-actimeout off needs an NFS server (-servers local has no NFS client)"},
		{Grid{FileCounts: []int{1000}},
			"-files 1000 applies only to -workload zipf (not -workload write)"},
		{Grid{Workloads: []bonnie.Workload{bonnie.WorkloadZipf}, ReadLag: 5 * time.Millisecond},
			"-readlag 5ms applies only to -workload shared (not -workload zipf)"},
		{Grid{Workloads: []bonnie.Workload{bonnie.WorkloadRandRead}, FsyncEvery: 64},
			"-fsync-every 64 applies only to a workload that flushes mid-run (not -workload randread)"},
	} {
		if err := tc.g.Expand()[0].Check(); err == nil || err.Error() != tc.want {
			t.Errorf("Check = %v, want %q", err, tc.want)
		}
	}
}
