package main

import (
	"fmt"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/rpcsim"
	"repro/internal/sim"
)

// refSeconds is the run length the op counts below are sized for: on the
// reference host (2 CPUs) each workload's timed ops take about this long,
// except fleet's, which minOps holds at about twice that.
const refSeconds = 15

// minOps keeps at least ten samples beyond p90 on every workload.
const minOps = 100

// A workload is a fixed list of scenario cells run in a closed loop: op i
// runs cell i mod len(cells) with seed base+i, and the next op starts when
// the previous one returns.
type workload struct {
	name string
	// ops is the op count of a refSeconds run, a whole number of rounds
	// over the cells.
	ops   int
	grids []harness.Grid
}

func clientConfigs(names ...string) []harness.ClientConfig {
	var out []harness.ClientConfig
	for _, n := range names {
		c, err := harness.ConfigByName(n)
		if err != nil {
			panic(err) // the names below are fixed
		}
		out = append(out, c)
	}
	return out
}

// stockReadahead is the enhanced client with the stock 2.4 readahead
// window, so the cold-read pair differs in readahead alone.
func stockReadahead() harness.ClientConfig {
	cfg := core.EnhancedConfig()
	cfg.ReadaheadMaxPages = core.StockReadaheadMaxPages
	return harness.ClientConfig{Name: "stock-ra", Config: cfg}
}

// workloads are the benchmark's inputs. The README records why each was
// chosen and which layers it stresses.
var workloads = []workload{
	{
		name: "paper-write",
		ops:  640,
		grids: []harness.Grid{{
			Servers:     []nfssim.ServerKind{nfssim.ServerFiler, nfssim.ServerLinux},
			Configs:     harness.NamedConfigs(),
			FileSizesMB: []int{16},
			Workloads:   []bonnie.Workload{bonnie.WorkloadWrite, bonnie.WorkloadRandWrite},
			TimeLimit:   30 * time.Minute,
		}},
	},
	{
		name: "tcp-loss",
		ops:  240,
		grids: []harness.Grid{{
			Configs:     clientConfigs("enhanced", "stock"),
			FileSizesMB: []int{10},
			Transports:  []rpcsim.TransportKind{rpcsim.TransportTCP},
			LossRates:   []float64{0, 0.01},
			TimeLimit:   30 * time.Minute,
		}},
	},
	{
		name: "fleet",
		ops:  100,
		grids: []harness.Grid{{
			Servers:     []nfssim.ServerKind{nfssim.ServerSlow100},
			Configs:     clientConfigs("enhanced"),
			FileSizesMB: []int{1},
			Clients:     []int{96},
			TimeLimit:   2 * time.Hour,
		}},
	},
	{
		name: "meta-read",
		ops:  704,
		grids: []harness.Grid{
			{
				Configs:     clientConfigs("enhanced"),
				FileSizesMB: []int{16},
				Workloads:   []bonnie.Workload{bonnie.WorkloadZipf},
				AcTimeouts:  []sim.Time{0, core.AcOff},
				TimeLimit:   30 * time.Minute,
			},
			{
				Configs:     clientConfigs("enhanced"),
				FileSizesMB: []int{16},
				Workloads:   []bonnie.Workload{bonnie.WorkloadZipf},
				ZipfSs:      []float64{bonnie.ZipfUniform},
				TimeLimit:   30 * time.Minute,
			},
			{
				Configs:     []harness.ClientConfig{clientConfigs("enhanced")[0], stockReadahead()},
				FileSizesMB: []int{16},
				Workloads:   []bonnie.Workload{bonnie.WorkloadRead},
				TimeLimit:   30 * time.Minute,
			},
			{
				Configs:       clientConfigs("enhanced"),
				FileSizesMB:   []int{2},
				Clients:       []int{4},
				Workloads:     []bonnie.Workload{bonnie.WorkloadShared},
				Consistencies: []core.ConsistencyMode{core.ConsistencyTTL, core.ConsistencyStrict, core.ConsistencyNoac},
				TimeLimit:     30 * time.Minute,
			},
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// cells expands the workload's grids into its scenario cells.
func (wl workload) cells() []harness.Scenario {
	var out []harness.Scenario
	for _, g := range wl.grids {
		out = append(out, g.Expand()...)
	}
	return out
}

// opCount scales the workload's op count to a run of the given length,
// in whole rounds over its cells and never below minOps.
func (wl workload) opCount(seconds, cells int) int {
	n := (wl.ops*seconds + refSeconds - 1) / refSeconds
	n = max(n, minOps)
	return (n + cells - 1) / cells * cells
}
