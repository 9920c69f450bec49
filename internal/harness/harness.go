// Package harness is the parallel scenario-sweep engine. It treats each
// test bed as an independent, deterministic unit of work: a Scenario
// fully specifies one benchmark run (server kind, client configuration,
// file size, wsize, client CPUs, cache limit, jumbo frames, seed), a
// Grid expands axis lists into the exact cross-product of Scenarios, and
// a Runner executes them across a worker pool, streaming Result records
// in stable scenario order so output is byte-for-byte reproducible
// regardless of worker count.
//
// The paper's own figures are fixed grids (see internal/experiments),
// but the harness accepts arbitrary user-defined grids via cmd/nfssweep.
package harness

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/rpcsim"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// ClientConfig is a named client configuration, so results carry a
// human-readable label instead of a struct dump.
type ClientConfig struct {
	Name   string
	Config core.Config
}

// NamedConfigs maps the canonical configuration names — the progression
// of the paper's fixes — to their core.Config constructors.
func NamedConfigs() []ClientConfig {
	return []ClientConfig{
		{"stock", core.Stock244Config()},
		{"nolimits", core.NoLimitsConfig()},
		{"hash", core.HashConfig()},
		{"enhanced", core.EnhancedConfig()},
	}
}

// ConfigByName resolves one canonical configuration name.
func ConfigByName(name string) (ClientConfig, error) {
	var names []string
	for _, c := range NamedConfigs() {
		if c.Name == name {
			return c, nil
		}
		names = append(names, c.Name)
	}
	return ClientConfig{}, fmt.Errorf("harness: unknown config %q (have %s)", name, strings.Join(names, ", "))
}

// ServerByName resolves a server-kind name as printed by
// nfssim.ServerKind.String.
func ServerByName(name string) (nfssim.ServerKind, error) {
	switch name {
	case "filer":
		return nfssim.ServerFiler, nil
	case "linux":
		return nfssim.ServerLinux, nil
	case "slow100":
		return nfssim.ServerSlow100, nil
	case "local", "none":
		return nfssim.ServerNone, nil
	}
	return 0, fmt.Errorf("harness: unknown server %q (have filer, linux, slow100, local)", name)
}

// Scenario is one fully-specified benchmark run. Expand fills every
// field, so two Scenarios with equal fields produce identical Results.
type Scenario struct {
	Server     nfssim.ServerKind
	Config     ClientConfig
	FileMB     int   // per-client file size
	WSize      int   // bytes; overrides Config's wsize
	ClientCPUs int   // per-machine client processor count
	Clients    int   // client machines writing concurrently (>= 1)
	CacheLimit int64 // per-machine page-cache budget, bytes
	Jumbo      bool
	// Transport selects the RPC wire protocol (default TransportUDP).
	Transport rpcsim.TransportKind
	// Loss is the per-fragment drop probability (default 0, lossless).
	Loss float64
	// NetJitter is the max extra random delivery delay per datagram.
	NetJitter sim.Time
	// Workload is the I/O pattern each client drives (default
	// bonnie.WorkloadWrite, the paper's benchmark). FileMB sizes the
	// workload's total I/O; read-family workloads open pre-populated
	// cold files of that size, and the random workloads visit chunks in
	// a deterministic per-seed permutation.
	Workload bonnie.Workload
	// FsyncEvery flushes the write stream every N chunks during the I/O
	// phase (group commit). 0 means never, except the db workload, which
	// defaults to bonnie.DefaultDBFsyncEvery.
	FsyncEvery int
	// FileCount is the zipf workload's file population (0 means
	// bonnie.DefaultZipfFiles; ignored by single-file workloads).
	FileCount int
	// ZipfS is the zipf workload's skew exponent (0 means
	// bonnie.DefaultZipfS; bonnie.ZipfUniform selects uniform access).
	ZipfS float64
	// Mix is the zipf workload's op mix (zero means bonnie.DefaultOpMix).
	Mix bonnie.OpMix
	// AcTimeout pins the client attribute cache's window: both acregmin
	// and acregmax are set to this value. 0 keeps the client's adaptive
	// defaults; core.AcOff (or any negative value) disables the cache
	// (mount -o noac).
	AcTimeout sim.Time
	// SharedWriterPct is the shared workload's writer share of the
	// per-run workers (0 means bonnie.DefaultSharedWriterPct; ignored by
	// other workloads).
	SharedWriterPct int
	// SharedReadLag is the shared workload's pause between reader passes
	// (0 means back-to-back; ignored by other workloads).
	SharedReadLag sim.Time
	// Consistency is the client's cache-consistency mode (default
	// core.ConsistencyTTL, the adaptive attribute-cache behavior every
	// pre-existing scenario ran under).
	Consistency core.ConsistencyMode
	Seed        int64
	Repeat      int // repeat index; Seed already includes the offset

	// SkipFlushClose stops each run after the write phase (the Figure
	// 1/7 memory-write comparison). When false the run flushes and
	// closes, as NFS semantics require before last close.
	SkipFlushClose bool
	// TimeLimit bounds one run's virtual time (default 30 minutes).
	TimeLimit sim.Time
}

// Key identifies the scenario's grid cell — every axis except seed and
// repeat — for grouping repeated runs. The cache limit appears in exact
// bytes: keying on truncated megabytes used to fold two cache limits
// differing by less than 1 MiB into one aggregation cell. The transport,
// loss, jitter, workload, file-count, Zipf-skew, op-mix, attribute-cache,
// sharing, read-lag, and consistency axes appear only at non-default
// values, so sweeps over the pre-existing axes keep byte-identical keys
// (and hence output) to the tree before those axes existed — pinned by
// the golden-CSV tests in harness_test.go.
func (sc Scenario) Key() string {
	clients := sc.Clients
	if clients < 1 {
		clients = 1 // hand-built pre-Clients scenarios; matches RunScenario
	}
	key := fmt.Sprintf("%s/%s/%dMB/w%d/c%d/n%d/m%dB/j%v",
		sc.Server, sc.Config.Name, sc.FileMB, sc.WSize, sc.ClientCPUs,
		clients, sc.CacheLimit, sc.Jumbo)
	if sc.Transport != rpcsim.TransportUDP {
		key += "/" + sc.Transport.String()
	}
	if sc.Loss > 0 {
		// FormatFloat 'g'/-1 is byte-identical to the old %v but pins
		// the encoding explicitly (keyfmt).
		key += "/l" + strconv.FormatFloat(sc.Loss, 'g', -1, 64)
	}
	if sc.NetJitter > 0 {
		key += fmt.Sprintf("/nj%v", sc.NetJitter)
	}
	if sc.Workload != bonnie.WorkloadWrite {
		key += "/" + sc.Workload.String()
	}
	if sc.FsyncEvery > 0 {
		key += fmt.Sprintf("/f%d", sc.FsyncEvery)
	}
	if sc.FileCount != 0 {
		key += fmt.Sprintf("/fc%d", sc.FileCount)
	}
	if sc.ZipfS != 0 {
		if sc.ZipfS == bonnie.ZipfUniform {
			key += "/zuni"
		} else {
			key += "/z" + strconv.FormatFloat(sc.ZipfS, 'g', -1, 64)
		}
	}
	if !sc.Mix.IsZero() {
		key += "/" + sc.Mix.String()
	}
	if sc.AcTimeout != 0 {
		if sc.AcTimeout < 0 {
			key += "/acoff"
		} else {
			key += fmt.Sprintf("/ac%v", sc.AcTimeout)
		}
	}
	if sc.SharedWriterPct != 0 && sc.SharedWriterPct != bonnie.DefaultSharedWriterPct {
		key += fmt.Sprintf("/sw%d", sc.SharedWriterPct)
	}
	if sc.SharedReadLag > 0 {
		key += fmt.Sprintf("/rl%v", sc.SharedReadLag)
	}
	if sc.Consistency != core.ConsistencyTTL {
		key += "/" + sc.Consistency.String()
	}
	return key
}

// Name is the scenario's full identity including seed and repeat.
func (sc Scenario) Name() string {
	return fmt.Sprintf("%s/s%d.%d", sc.Key(), sc.Seed, sc.Repeat)
}

// Grid declares the sweep axes. Expand produces the exact cross-product
// of every non-empty axis; empty axes fall back to the listed default.
type Grid struct {
	Servers       []nfssim.ServerKind    // default: filer
	Configs       []ClientConfig         // default: stock
	FileSizesMB   []int                  // default: 40 (per client)
	WSizes        []int                  // default: each config's own wsize
	ClientCPUs    []int                  // default: 2 (the paper's dual P-III)
	Clients       []int                  // default: 1 (client machines per run)
	CacheLimits   []int64                // default: mm.DefaultDirtyLimit
	Jumbo         []bool                 // default: false
	Transports    []rpcsim.TransportKind // default: udp
	LossRates     []float64              // default: 0 (lossless)
	Workloads     []bonnie.Workload      // default: write
	FileCounts    []int                  // default: 0 (bonnie's DefaultZipfFiles)
	ZipfSs        []float64              // default: 0 (bonnie's DefaultZipfS)
	AcTimeouts    []sim.Time             // default: 0 (client's adaptive defaults)
	Sharings      []int                  // default: 0 (bonnie's DefaultSharedWriterPct)
	Consistencies []core.ConsistencyMode // default: ttl
	Seeds         []int64                // default: 1

	// Scalar knobs, not axes: each sets the Scenario field of the same
	// name (ReadLag sets SharedReadLag) to one value in every scenario.
	NetJitter  sim.Time
	FsyncEvery int
	Mix        bonnie.OpMix
	ReadLag    sim.Time

	// Repeats re-runs every cell Repeats times, offsetting each base
	// seed per repeat by the span of the Seeds list (max-min+1, so a
	// single base seed yields seed, seed+1, ...). Distinct base seeds
	// therefore never collide across repeats: every run in a cell has
	// a unique seed, and Aggregate folds genuinely independent runs
	// into its mean/stddev summaries.
	Repeats int

	SkipFlushClose bool
	TimeLimit      sim.Time
}

// or returns the axis xs, or the one-value axis {def} when xs is empty.
func or[T any](xs []T, def T) []T {
	if len(xs) == 0 {
		return []T{def}
	}
	return xs
}

// cross returns the cross-product of scs with one more axis: every
// scenario of scs, in order, once per value, with set applied to a
// copy. The new axis varies fastest.
func cross[T any](scs []Scenario, vals []T, set func(*Scenario, T)) []Scenario {
	out := make([]Scenario, 0, len(scs)*len(vals))
	for _, sc := range scs {
		for _, v := range vals {
			c := sc
			set(&c, v)
			out = append(out, c)
		}
	}
	return out
}

// Expand returns the cross-product of all axes in a fixed nesting order
// (config, server, file size, wsize, CPUs, clients, cache limit, jumbo,
// transport, loss, workload, file count, Zipf skew, ac timeout, sharing,
// consistency, seed, repeat — innermost last), with every Scenario field
// resolved to its concrete value. The order is deterministic: the same
// Grid always expands to the same slice.
func (g Grid) Expand() []Scenario {
	scs := []Scenario{{
		NetJitter:      g.NetJitter,
		FsyncEvery:     g.FsyncEvery,
		Mix:            g.Mix,
		SharedReadLag:  g.ReadLag,
		SkipFlushClose: g.SkipFlushClose,
		TimeLimit:      cmp.Or(g.TimeLimit, 30*time.Minute),
	}}
	stock := ClientConfig{"stock", core.Stock244Config()}
	scs = cross(scs, or(g.Configs, stock), func(sc *Scenario, v ClientConfig) {
		sc.Config = v
		sc.WSize = v.Config.WSize // unless the wsize axis overrides it
	})
	scs = cross(scs, or(g.Servers, nfssim.ServerFiler), func(sc *Scenario, v nfssim.ServerKind) { sc.Server = v })
	scs = cross(scs, or(g.FileSizesMB, 40), func(sc *Scenario, v int) { sc.FileMB = v })
	if len(g.WSizes) > 0 {
		scs = cross(scs, g.WSizes, func(sc *Scenario, v int) { sc.WSize = v })
	}
	scs = cross(scs, or(g.ClientCPUs, 2), func(sc *Scenario, v int) { sc.ClientCPUs = v })
	scs = cross(scs, or(g.Clients, 1), func(sc *Scenario, v int) { sc.Clients = v })
	scs = cross(scs, or(g.CacheLimits, mm.DefaultDirtyLimit), func(sc *Scenario, v int64) { sc.CacheLimit = v })
	scs = cross(scs, or(g.Jumbo, false), func(sc *Scenario, v bool) { sc.Jumbo = v })
	scs = cross(scs, or(g.Transports, rpcsim.TransportUDP), func(sc *Scenario, v rpcsim.TransportKind) { sc.Transport = v })
	scs = cross(scs, or(g.LossRates, 0), func(sc *Scenario, v float64) { sc.Loss = v })
	scs = cross(scs, or(g.Workloads, bonnie.WorkloadWrite), func(sc *Scenario, v bonnie.Workload) { sc.Workload = v })
	scs = cross(scs, or(g.FileCounts, 0), func(sc *Scenario, v int) { sc.FileCount = v })
	scs = cross(scs, or(g.ZipfSs, 0), func(sc *Scenario, v float64) { sc.ZipfS = v })
	scs = cross(scs, or(g.AcTimeouts, 0), func(sc *Scenario, v sim.Time) { sc.AcTimeout = v })
	scs = cross(scs, or(g.Sharings, 0), func(sc *Scenario, v int) { sc.SharedWriterPct = v })
	scs = cross(scs, or(g.Consistencies, core.ConsistencyTTL), func(sc *Scenario, v core.ConsistencyMode) { sc.Consistency = v })
	seeds := or(g.Seeds, 1)
	scs = cross(scs, seeds, func(sc *Scenario, v int64) { sc.Seed = v })
	// Repeat r shifts every base seed by r*span; span covers the whole
	// base-seed range, so no two (seed, repeat) pairs share a seed.
	span := slices.Max(seeds) - slices.Min(seeds) + 1
	repeats := make([]int, max(g.Repeats, 1))
	for r := range repeats {
		repeats[r] = r
	}
	return cross(scs, repeats, func(sc *Scenario, r int) {
		sc.Seed += int64(r) * span
		sc.Repeat = r
	})
}

// ParseSizes parses a file-size axis spec: either a comma list
// ("25,100,450") or a range with step ("25..450:25", step defaulting
// to 25). Values are megabytes.
func ParseSizes(spec string) ([]int, error) {
	lo, rest, isRange := strings.Cut(spec, "..")
	if !isRange {
		if spec == "" {
			return nil, fmt.Errorf("harness: empty size spec")
		}
		return ParseList(spec, PositiveInt)
	}
	hi, stepStr, _ := strings.Cut(rest, ":")
	a, err := PositiveInt(lo)
	if err != nil {
		return nil, err
	}
	b, err := PositiveInt(hi)
	if err != nil || b < a {
		return nil, fmt.Errorf("harness: bad size range %q", spec)
	}
	step := 25
	if stepStr != "" {
		if step, err = PositiveInt(stepStr); err != nil {
			return nil, err
		}
	}
	var out []int
	for mb := a; mb <= b; mb += step {
		out = append(out, mb)
	}
	return out, nil
}

// ParseList parses a comma-separated axis spec ("filer,linux"), each
// trimmed element through parse; the first bad element fails the list.
// An empty spec is an empty list, so the axis keeps its default.
func ParseList[T any](spec string, parse func(string) (T, error)) ([]T, error) {
	if spec == "" {
		return nil, nil
	}
	var out []T
	for _, f := range strings.Split(spec, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// PositiveInt parses a count: CPUs, clients, megabytes, files.
func PositiveInt(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("harness: bad value %q (want a positive integer)", s)
	}
	return n, nil
}

// CheckWSize is the rule core.NewClient enforces on a write size: a
// positive multiple of the page size.
func CheckWSize(ws int) error {
	if ws <= 0 || ws%vfs.PageSize != 0 {
		return fmt.Errorf("harness: wsize %d is not a positive multiple of the %d-byte page size", ws, vfs.PageSize)
	}
	return nil
}

// WSize parses a write size in bytes, checked by CheckWSize.
func WSize(s string) (int, error) {
	ws, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("harness: bad wsize %q", s)
	}
	return ws, CheckWSize(ws)
}

// LossRate parses a per-fragment drop probability in [0, 1).
func LossRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v >= 0 && v < 1) {
		return 0, fmt.Errorf("harness: bad loss rate %q (want a probability in [0, 1))", s)
	}
	return v, nil
}

// ZipfS parses a Zipf skew exponent; "uniform" (or bonnie.ZipfUniform's
// -1) selects uniform file choice.
func ZipfS(s string) (float64, error) {
	if s == "uniform" {
		return bonnie.ZipfUniform, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || (v < 0 && v != bonnie.ZipfUniform) {
		return 0, fmt.Errorf("harness: bad zipf exponent %q (want a non-negative number or \"uniform\")", s)
	}
	return v, nil
}

// AcTimeout parses an attribute-cache window: "off" disables the cache
// (mount -o noac), "default" (or 0) keeps the client's adaptive
// acregmin/acregmax aging, and a duration pins the window.
func AcTimeout(s string) (sim.Time, error) {
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

// Sharing parses a shared-workload writer percentage; "default" (or 0)
// keeps bonnie's DefaultSharedWriterPct.
func Sharing(s string) (int, error) {
	if s == "default" || s == "0" {
		return 0, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 1 || n > 100 {
		return 0, fmt.Errorf("harness: bad writer percentage %q (want 1-100 or \"default\")", s)
	}
	return n, nil
}

// ConsistencyByName parses a cache-consistency mode: ttl, strict, or noac.
func ConsistencyByName(s string) (core.ConsistencyMode, error) {
	m, ok := core.ParseConsistency(s)
	if !ok {
		return 0, fmt.Errorf("harness: unknown consistency mode %q (have ttl, strict, noac)", s)
	}
	return m, nil
}

// appearanceOrder deduplicates keys preserving first appearance, so
// aggregation output follows scenario order, not map order.
func appearanceOrder(order []string) []string {
	seen := make(map[string]bool, len(order))
	out := make([]string, 0, len(order))
	for _, k := range order {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}
