package harness

import (
	"flag"
	"fmt"
	"strconv"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/rpcsim"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// Axis declares one scenario axis or scalar knob once: the nfssweep
// flag that carries it, the chaos fleet key that sets it, the flag's
// default and usage, how a spec sets it in a Grid, and which cells it
// applies to.
type Axis struct {
	Flag    string // nfssweep and nfstrace flag, without the dash
	Key     string // chaos fleet key; "" when a fleet cannot set the axis
	Default string // the flag's default spec
	Usage   string
	// Set parses spec into g. An empty spec leaves g's field empty, so
	// the axis keeps its Expand default.
	Set func(g *Grid, spec string) error
	// Rule, when set, rejects a cell the axis's value cannot apply to.
	// Its error reads after "-Flag ", starting with the value.
	Rule func(Scenario) error
}

// Axes is the axis table: nfssweep and nfstrace register their flags
// from it, chaos sets a fleet through it, and Scenario.Check runs its
// rules.
var Axes = []Axis{
	{Flag: "servers", Key: "server", Default: "filer", Usage: "comma list of servers: filer, linux, slow100, local",
		Set: list(func(g *Grid) *[]nfssim.ServerKind { return &g.Servers }, serverByName)},
	{Flag: "configs", Key: "config", Default: "stock", Usage: "comma list of client configs: stock, nolimits, hash, enhanced",
		Set: list(func(g *Grid) *[]ClientConfig { return &g.Configs }, ConfigByName)},
	{Flag: "sizes", Key: "file_mb", Default: "40", Usage: "file sizes in MB: comma list (25,100) or range lo..hi:step (25..450:25)",
		Set: scalar(func(g *Grid) *[]int { return &g.FileSizesMB }, ParseSizes)},
	{Flag: "wsizes", Key: "wsize", Usage: "comma list of wsize bytes (multiples of 4096; default: each config's own)",
		Set: list(func(g *Grid) *[]int { return &g.WSizes }, wsize),
		Rule: needsNFS("NFS client", func(sc Scenario) (string, bool) {
			return strconv.Itoa(sc.WSize), sc.WSize != sc.Config.Config.WSize
		})},
	{Flag: "cpus", Usage: "comma list of client CPU counts (default 2)",
		Set: list(func(g *Grid) *[]int { return &g.ClientCPUs }, positiveInt)},
	{Flag: "clients", Key: "clients", Usage: "comma list of concurrent client machines per run, e.g. 1,2,4,8 (default 1)",
		Set: list(func(g *Grid) *[]int { return &g.Clients }, positiveInt)},
	{Flag: "cache", Usage: "comma list of page-cache limits in MB (default: the 2.4.4 budget)",
		Set: list(func(g *Grid) *[]int64 { return &g.CacheLimits }, func(s string) (int64, error) {
			mb, err := positiveInt(s)
			return int64(mb) << 20, err
		})},
	{Flag: "jumbo", Default: "off", Usage: "jumbo frames: off, on, or both (an axis)",
		Set: scalar(func(g *Grid) *[]bool { return &g.Jumbo }, func(s string) ([]bool, error) {
			v, ok := map[string][]bool{"off": nil, "on": {true}, "both": {false, true}}[s]
			if !ok {
				return nil, fmt.Errorf("must be off, on, or both")
			}
			return v, nil
		}),
		Rule: needsNFS("network", func(sc Scenario) (string, bool) { return "on", sc.Jumbo })},
	{Flag: "transport", Key: "transport", Default: "udp", Usage: "comma list of RPC transports: udp, tcp",
		Set: list(func(g *Grid) *[]rpcsim.TransportKind { return &g.Transports }, rpcsim.ParseTransport),
		Rule: needsNFS("network", func(sc Scenario) (string, bool) {
			return sc.Transport.String(), sc.Transport != rpcsim.TransportUDP
		})},
	{Flag: "loss", Key: "loss", Default: "0", Usage: "comma list of per-fragment drop probabilities, e.g. 0,0.01,0.05",
		Set: list(func(g *Grid) *[]float64 { return &g.LossRates }, lossRate),
		Rule: needsNFS("network", func(sc Scenario) (string, bool) {
			return strconv.FormatFloat(sc.Loss, 'g', -1, 64), sc.Loss > 0
		})},
	{Flag: "workload", Key: "workload", Default: "write",
		Usage: "comma list of workloads: write, rewrite, read, mixed, randread, randwrite, db, zipf, shared",
		Set:   list(func(g *Grid) *[]bonnie.Workload { return &g.Workloads }, bonnie.ParseWorkload),
		Rule: needsNFS("namespace", func(sc Scenario) (string, bool) {
			return sc.Workload.String(), sc.Workload.OpensByName()
		})},
	{Flag: "files", Usage: "comma list of zipf file populations, e.g. 100,1000 (default 100)",
		Set: list(func(g *Grid) *[]int { return &g.FileCounts }, positiveInt),
		Rule: only(bonnie.WorkloadZipf, func(sc Scenario) (string, bool) {
			return strconv.Itoa(sc.FileCount), sc.FileCount != 0
		})},
	{Flag: "zipf-s", Usage: "comma list of zipf skew exponents, e.g. 0.8,1.2,uniform (default 1.2)",
		Set: list(func(g *Grid) *[]float64 { return &g.ZipfSs }, zipfS),
		Rule: only(bonnie.WorkloadZipf, func(sc Scenario) (string, bool) {
			if sc.ZipfS == bonnie.ZipfUniform {
				return "uniform", true
			}
			return strconv.FormatFloat(sc.ZipfS, 'g', -1, 64), sc.ZipfS != 0
		})},
	{Flag: "actimeout", Usage: "comma list of attribute-cache windows: off, default, or durations like 3s,60s",
		Set: list(func(g *Grid) *[]sim.Time { return &g.AcTimeouts }, acTimeout),
		Rule: needsNFS("NFS client", func(sc Scenario) (string, bool) {
			if sc.AcTimeout < 0 {
				return "off", true
			}
			return sc.AcTimeout.String(), sc.AcTimeout != 0
		})},
	{Flag: "shared", Usage: "comma list of shared-workload writer percentages, e.g. 25,50,75 (default 50)",
		Set: list(func(g *Grid) *[]int { return &g.Sharings }, sharing),
		Rule: only(bonnie.WorkloadShared, func(sc Scenario) (string, bool) {
			return strconv.Itoa(sc.SharedWriterPct), sc.SharedWriterPct != 0
		})},
	{Flag: "consistency", Key: "consistency", Usage: "comma list of cache-consistency modes: ttl, strict, noac",
		Set: list(func(g *Grid) *[]core.ConsistencyMode { return &g.Consistencies }, consistencyByName),
		Rule: needsNFS("NFS client", func(sc Scenario) (string, bool) {
			return sc.Consistency.String(), sc.Consistency != core.ConsistencyTTL
		})},
	{Flag: "opmix", Usage: "zipf op mix as create/write/read/stat/remove percentages, e.g. 10/30/40/15/5 (not an axis)",
		Set: scalar(func(g *Grid) *bonnie.OpMix { return &g.Mix }, bonnie.ParseOpMix),
		Rule: only(bonnie.WorkloadZipf, func(sc Scenario) (string, bool) {
			m := sc.Mix
			return fmt.Sprintf("%d/%d/%d/%d/%d", m.Create, m.Write, m.Read, m.Stat, m.Remove), !m.IsZero()
		})},
	{Flag: "readlag", Default: "0s", Usage: "shared-workload pause between reader passes (e.g. 5ms; not an axis)",
		Set: scalar(func(g *Grid) *sim.Time { return &g.ReadLag }, duration),
		Rule: only(bonnie.WorkloadShared, func(sc Scenario) (string, bool) {
			return sc.SharedReadLag.String(), sc.SharedReadLag != 0
		})},
	{Flag: "fsync-every", Default: "0",
		Usage: "flush (group commit) every N chunks during the I/O phase; 0 = never (db defaults to 32; not an axis)",
		Set: scalar(func(g *Grid) *int { return &g.FsyncEvery }, func(s string) (int, error) {
			n, err := strconv.Atoi(s)
			if err != nil || n < 0 {
				return 0, fmt.Errorf("must be a non-negative integer")
			}
			return n, nil
		}),
		Rule: func(sc Scenario) error {
			if sc.FsyncEvery > 0 && !sc.Workload.HonoursFsyncEvery() {
				return fmt.Errorf("%d applies only to a workload that flushes mid-run (not -workload %s)", sc.FsyncEvery, sc.Workload)
			}
			return nil
		}},
	{Flag: "netjitter", Default: "0s", Usage: "max extra random delivery delay per datagram (e.g. 200us; not an axis)",
		Set: scalar(func(g *Grid) *sim.Time { return &g.NetJitter }, duration),
		Rule: needsNFS("network", func(sc Scenario) (string, bool) {
			return sc.NetJitter.String(), sc.NetJitter != 0
		})},
	{Flag: "seed", Key: "seed", Default: "1", Usage: "base simulation seed",
		Set: scalar(func(g *Grid) *[]int64 { return &g.Seeds }, func(s string) ([]int64, error) {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("must be a positive integer")
			}
			return []int64{n}, nil
		})},
}

// list returns the setter of a comma-list axis, which parses each
// element through elem into the field of g that field names.
func list[T any](field func(*Grid) *[]T, elem func(string) (T, error)) func(*Grid, string) error {
	return func(g *Grid, s string) (err error) {
		*field(g), err = ParseList(s, elem)
		return err
	}
}

// scalar returns the setter of a knob whose spec parse reads whole,
// into the field of g that field names; an empty spec sets nothing.
func scalar[T any](field func(*Grid) *T, parse func(string) (T, error)) func(*Grid, string) error {
	return func(g *Grid, s string) (err error) {
		if s != "" {
			*field(g), err = parse(s)
		}
		return err
	}
}

// needsNFS is the rule of an axis that only an NFS mount has, which the
// local server lacks (its network, NFS client or namespace). value
// gives the cell's value as a spec, and whether it is not the default.
func needsNFS(lack string, value func(Scenario) (string, bool)) func(Scenario) error {
	return func(sc Scenario) error {
		if v, set := value(sc); set && sc.Server == nfssim.ServerNone {
			return fmt.Errorf("%s needs an NFS server (-servers local has no %s)", v, lack)
		}
		return nil
	}
}

// only is the rule of an axis that only workload w reads.
func only(w bonnie.Workload, value func(Scenario) (string, bool)) func(Scenario) error {
	return func(sc Scenario) error {
		if v, set := value(sc); set && sc.Workload != w {
			return fmt.Errorf("%s applies only to -workload %s (not -workload %s)", v, w, sc.Workload)
		}
		return nil
	}
}

// Check reports the first axis whose value cannot apply to the cell,
// naming its flag and the flag that rules it out. It runs nothing.
func (sc Scenario) Check() error {
	for _, a := range Axes {
		if a.Rule == nil {
			continue
		}
		if err := a.Rule(sc); err != nil {
			return fmt.Errorf("-%s %w", a.Flag, err)
		}
	}
	return nil
}

// RegisterAxes defines one string flag per axis on fs and returns a
// function that builds the Grid the parsed flags describe. Its error
// names the first bad flag.
func RegisterAxes(fs *flag.FlagSet) func() (Grid, error) {
	specs := make([]*string, len(Axes))
	for i, a := range Axes {
		specs[i] = fs.String(a.Flag, a.Default, a.Usage)
	}
	return func() (g Grid, err error) {
		for i, a := range Axes {
			if err := a.Set(&g, *specs[i]); err != nil {
				return g, fmt.Errorf("-%s: %w", a.Flag, err)
			}
		}
		return g, nil
	}
}

// serverByName resolves a server-kind name as printed by
// nfssim.ServerKind.String.
func serverByName(name string) (nfssim.ServerKind, error) {
	return byName("server", name, nfssim.ServerNone)
}

// positiveInt parses a count: CPUs, clients, megabytes, files.
func positiveInt(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("harness: bad value %q (want a positive integer)", s)
	}
	return n, nil
}

// wsize parses a write size in bytes: a positive multiple of the page
// size, the rule core.NewClient enforces.
func wsize(s string) (int, error) {
	ws, err := strconv.Atoi(s)
	if err != nil || ws <= 0 || ws%vfs.PageSize != 0 {
		return 0, fmt.Errorf("harness: bad wsize %q (want a positive multiple of the %d-byte page size)", s, vfs.PageSize)
	}
	return ws, nil
}

// lossRate parses a per-fragment drop probability in [0, 1).
func lossRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v >= 0 && v < 1) {
		return 0, fmt.Errorf("harness: bad loss rate %q (want a probability in [0, 1))", s)
	}
	return v, nil
}

// zipfS parses a Zipf skew exponent; "uniform" (or bonnie.ZipfUniform's
// -1) selects uniform file choice.
func zipfS(s string) (float64, error) {
	if s == "uniform" {
		return bonnie.ZipfUniform, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || (v < 0 && v != bonnie.ZipfUniform) {
		return 0, fmt.Errorf("harness: bad zipf exponent %q (want a non-negative number or \"uniform\")", s)
	}
	return v, nil
}

// acTimeout parses an attribute-cache window: "off" disables the cache
// (mount -o noac), "default" (or 0) keeps the client's adaptive
// acregmin/acregmax aging, and a duration pins the window.
func acTimeout(s string) (sim.Time, error) {
	switch s {
	case "off":
		return core.AcOff, nil
	case "default", "0":
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("harness: bad attribute-cache timeout %q (want a duration, \"off\", or \"default\")", s)
	}
	return d, nil
}

// sharing parses a shared-workload writer percentage; "default" (or 0)
// keeps bonnie's DefaultSharedWriterPct.
func sharing(s string) (int, error) {
	if s == "default" || s == "0" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 || n > 100 {
		return 0, fmt.Errorf("harness: bad writer percentage %q (want 1-100 or \"default\")", s)
	}
	return n, nil
}

// consistencyByName parses a cache-consistency mode as printed by
// core.ConsistencyMode.String.
func consistencyByName(s string) (core.ConsistencyMode, error) {
	return byName("consistency mode", s, core.ConsistencyNoac)
}

// duration parses a non-negative scalar duration.
func duration(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("must be a non-negative duration such as 200us")
	}
	return d, nil
}
