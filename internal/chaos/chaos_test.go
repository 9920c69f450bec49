package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	nfssim "repro"
	"repro/internal/bonnie"
	"repro/internal/core"
	"repro/internal/rpcsim"
)

const sampleYAML = `
# full-featured scenario exercising every field and action kind
scenarios:
  - name: kitchen-sink
    description: "every knob turned"
    fleet:
      server: linux
      config: enhanced
      clients: 2
      file_mb: 4
      wsize: 16384
      workload: write
      transport: udp
      loss: 0.05
      seed: 9
      max_retries: 12
      time_limit: 10m
    events:
      - at: 10ms
        action: link_down
        host: client1
      - at: 20ms
        action: link_up
        host: client1
      - at: 30ms
        action: loss_burst
        rate: 0.25
        for: 5ms
      - at: 40ms
        action: jitter_burst
        jitter: 200us
        for: 5ms
      - at: 50ms
        action: disk_degrade
        factor: 3.5
        for: 10ms
      - at: 60ms
        action: server_crash
      - at: 90ms
        action: server_restart
      - action: assert_completes
      - action: assert_no_data_loss
      - action: assert_agg_mbps_min
        min_mbps: 0.5
`

// YAML → json.Marshal → Parse must round-trip to the identical Scenario,
// proving the two front ends decode to the same thing and the json tags
// name every key.
func TestJSONRoundTrip(t *testing.T) {
	scs, err := Parse([]byte(sampleYAML))
	if err != nil {
		t.Fatalf("parse yaml: %v", err)
	}
	if len(scs) != 1 {
		t.Fatalf("got %d scenarios", len(scs))
	}
	js, err := json.Marshal(scs[0])
	if err != nil {
		t.Fatalf("encode json: %v", err)
	}
	back, err := Parse(js)
	if err != nil {
		t.Fatalf("re-parse json: %v\n%s", err, js)
	}
	if len(back) != 1 {
		t.Fatalf("re-parse produced %d scenarios", len(back))
	}
	if !reflect.DeepEqual(scs[0], back[0]) {
		t.Fatalf("round trip diverged:\nyaml: %+v\njson: %+v", scs[0], back[0])
	}
}

// Defaults fill in when the fleet block is minimal: chaos's own config
// and file size, and every other axis's sweep default.
func TestFleetDefaults(t *testing.T) {
	scs, err := Parse([]byte(`
scenarios:
  - name: tiny
    fleet:
      server: filer
    events:
      - action: assert_completes
`))
	if err != nil {
		t.Fatal(err)
	}
	bed := scs[0].bed
	if bed.Config.Name != "enhanced" || bed.Clients != 1 || bed.FileMB != 8 ||
		bed.Workload != bonnie.WorkloadWrite || bed.Transport != rpcsim.TransportUDP || bed.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", bed)
	}
	if bed.TimeLimit != 30*time.Minute {
		t.Fatalf("time limit %v, want the 30m default", bed.TimeLimit)
	}
}

// rejections are malformed scenario sources, each with a substring its
// error must mention. FuzzParse starts from them too.
var rejections = []struct {
	name, src, want string
}{
	{"unknown action", `
scenarios:
  - name: x
    fleet:
      server: filer
    events:
      - action: server_explode
`, "unknown action"},
	{"misplaced key", `
scenarios:
  - name: x
    fleet:
      server: filer
    events:
      - action: server_crash
        at: 1ms
        rate: 0.5
`, `does not take "rate"`},
	{"unknown fleet key", `
scenarios:
  - name: x
    fleet:
      server: filer
      flavor: spicy
    events:
      - action: assert_completes
`, "flavor"},
	{"unknown scenario key", `
scenarios:
  - name: x
    fleet:
      server: filer
    priority: high
    events:
      - action: assert_completes
`, "priority"},
	{"unknown server", `
scenarios:
  - name: x
    fleet:
      server: netapp
    events:
      - action: assert_completes
`, "server"},
	{"restart without crash", `
scenarios:
  - name: x
    fleet:
      server: filer
    events:
      - at: 10ms
        action: server_restart
`, "server_restart"},
	{"crash over tcp", `
scenarios:
  - name: x
    fleet:
      server: filer
      transport: tcp
    events:
      - at: 10ms
        action: server_crash
      - at: 20ms
        action: server_restart
`, "udp"},
	{"loss out of range", `
scenarios:
  - name: x
    fleet:
      server: filer
      loss: 1.5
    events:
      - action: assert_completes
`, "loss"},
	{"bad host", `
scenarios:
  - name: x
    fleet:
      server: filer
    events:
      - at: 1ms
        action: link_down
        host: client5
`, "host"},
	{"duplicate scenario names", `
scenarios:
  - name: same
    fleet:
      server: filer
    events:
      - action: assert_completes
  - name: same
    fleet:
      server: filer
    events:
      - action: assert_completes
`, "duplicate"},
	{"extra top-level key", `
scenarios:
  - name: x
    fleet:
      server: filer
    events:
      - action: assert_completes
version: 2
`, "top level"},
	{"tab indentation", "scenarios:\n\t- name: x\n", "tab"},
	{"duplicate map keys", `
scenarios:
  - name: x
    fleet:
      server: filer
      server: linux
    events:
      - action: assert_completes
`, "duplicate"},
	{"no events", `
scenarios:
  - name: x
    fleet:
      server: filer
`, "events"},
	{"stale_max takes max_stale not bytes", `
scenarios:
  - name: x
    fleet:
      server: filer
    events:
      - action: assert_stale_max
        bytes: 100
`, "does not take"},
	{"negative max_stale", `
scenarios:
  - name: x
    fleet:
      server: filer
    events:
      - action: assert_stale_max
        max_stale: -1
`, "non-negative"},
	{"wsize not a page multiple", `
scenarios:
  - name: x
    fleet:
      server: filer
      wsize: 1000
    events:
      - action: assert_completes
`, "fleet.wsize"},
	{"negative wsize", `
scenarios:
  - name: x
    fleet:
      server: filer
      wsize: -8192
    events:
      - action: assert_completes
`, "fleet.wsize"},
	{"local server", `
scenarios:
  - name: x
    fleet:
      server: local
    events:
      - action: assert_completes
`, "not an NFS server"},
	{"a list where a fleet takes one value", `
scenarios:
  - name: x
    fleet:
      server: filer
      workload: write,read
    events:
      - action: assert_completes
`, "fleet.workload"},
	{"bad consistency mode", `
scenarios:
  - name: x
    fleet:
      server: filer
      consistency: eventual
    events:
      - action: assert_completes
`, "consistency"},
}

func TestRejections(t *testing.T) {
	for _, c := range rejections {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.src))
			if err == nil {
				t.Fatalf("accepted invalid input")
			}
			if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.want)) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// A file with two bad keys names the same one on every parse: the
// decoder visits a map's keys in sorted order, not Go's random map
// order.
func TestDecodeErrorsDeterministic(t *testing.T) {
	for name, src := range map[string]string{
		"two unknown fleet keys": `
name: x
fleet:
  server: filer
  flavor: spicy
  color: red
events:
  - action: assert_completes
`,
		"two misplaced event keys": `
name: x
fleet:
  server: filer
events:
  - action: server_crash
    rate: 0.5
    host: server
`,
	} {
		t.Run(name, func(t *testing.T) {
			_, first := Parse([]byte(src))
			if first == nil {
				t.Fatal("accepted invalid input")
			}
			for range 100 {
				if _, err := Parse([]byte(src)); err == nil || err.Error() != first.Error() {
					t.Fatalf("error changed between parses: %q, then %v", first, err)
				}
			}
		})
	}
}

// Both front ends read an integer exactly: a seed above 2^53 is the same
// in YAML and JSON, not rounded through float64.
func TestYAMLJSONIntegerParity(t *testing.T) {
	yml, err := Parse([]byte(`
name: big-seed
fleet:
  server: filer
  seed: 9007199254740993
events:
  - action: assert_completes
`))
	if err != nil {
		t.Fatal(err)
	}
	js, err := Parse([]byte(`{"name": "big-seed", "fleet": {"server": "filer", "seed": 9007199254740993},
		"events": [{"action": "assert_completes"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if yml[0].Fleet.Seed != 9007199254740993 || !reflect.DeepEqual(yml, js) {
		t.Fatalf("yaml seed %d, json seed %d; want both 9007199254740993",
			yml[0].Fleet.Seed, js[0].Fleet.Seed)
	}
}

// FuzzParse checks three properties of Parse on any input: it never
// panics, it gives the same answer twice, and a scenario it accepts
// survives json.Marshal and Parse unchanged.
func FuzzParse(f *testing.F) {
	f.Add([]byte(sampleYAML))
	f.Add([]byte(`{"": {"": 5}}`)) // an empty key must not match the untagged bed field
	for _, c := range rejections {
		f.Add([]byte(c.src))
	}
	files, _ := filepath.Glob(filepath.Join("..", "..", "examples", "chaos", "*.yaml"))
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		scs, err := Parse(src)
		again, err2 := Parse(src)
		if fmt.Sprint(err) != fmt.Sprint(err2) || !reflect.DeepEqual(scs, again) {
			t.Fatalf("two parses differ: %v / %v", err, err2)
		}
		for _, sc := range scs {
			js, err := json.Marshal(sc)
			if err != nil {
				t.Fatalf("marshal %q: %v", sc.Name, err)
			}
			back, err := Parse(js)
			if err != nil {
				t.Fatalf("re-parse %s: %v", js, err)
			}
			if !reflect.DeepEqual(back, []*Scenario{sc}) {
				t.Fatalf("round trip diverged:\nfirst: %+v\nagain: %+v", sc, back[0])
			}
		}
	})
}

// The checked-in example scenarios are the CLI's front door: they must
// load, run, and pass their own assertions, and the counters must show
// the two backends' contrasting durability stories.
func TestExampleScenarios(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "chaos")

	crash, err := Load(filepath.Join(dir, "crash.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	reps := RunAll(crash, 2)
	if len(reps) != 2 {
		t.Fatalf("crash.yaml: %d reports", len(reps))
	}
	filer, knfsd := reps[0], reps[1]
	if filer.Failed || knfsd.Failed {
		t.Fatalf("crash scenarios failed:\n%s%s", filer.Render(), knfsd.Render())
	}
	if filer.LostBytes != 0 || filer.ReplayedBytes == 0 {
		t.Fatalf("filer: lost=%d replayed=%d, want NVRAM replay with zero loss",
			filer.LostBytes, filer.ReplayedBytes)
	}
	if knfsd.LostBytes == 0 || knfsd.RewrittenBytes == 0 || knfsd.VerfChanges == 0 {
		t.Fatalf("knfsd: lost=%d rewritten=%d verf=%d, want lost async bytes detected and rewritten",
			knfsd.LostBytes, knfsd.RewrittenBytes, knfsd.VerfChanges)
	}

	dead, err := Load(filepath.Join(dir, "deadserver.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(dead[0])
	if rep.Failed {
		t.Fatalf("dead-server scenario failed:\n%s", rep.Render())
	}
	if rep.Err == "" || !strings.Contains(rep.Err, "gave up after") {
		t.Fatalf("dead server err = %q, want the bounded-retry give-up error", rep.Err)
	}

	flap, err := Load(filepath.Join(dir, "flap.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	if rep := Run(flap[0]); rep.Failed {
		t.Fatalf("flap scenario failed:\n%s", rep.Render())
	}

	tcpFlap, err := Load(filepath.Join(dir, "tcpflap.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	// The stream repairs what the network broke: segments were
	// retransmitted, and every acked byte still reached stable storage.
	if rep := Run(tcpFlap[0]); rep.Failed || rep.Retransmits == 0 {
		t.Fatalf("tcp flap scenario failed or never retransmitted:\n%s", rep.Render())
	}

	shared, err := Load(filepath.Join(dir, "sharedcrash.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	srep := Run(shared[0])
	if srep.Failed {
		t.Fatalf("shared-crash scenario failed:\n%s", srep.Render())
	}
	// The coherence story: the crash must not cost acked bytes or run
	// any change counter backwards, and the ttl readers do serve some
	// cached (stale) reads — that is what the assert bounds.
	if srep.LostBytes != 0 || srep.ChangeRegressions != 0 {
		t.Fatalf("shared-crash: lost=%d change_regressions=%d, want 0/0",
			srep.LostBytes, srep.ChangeRegressions)
	}
	if srep.StaleReads == 0 {
		t.Fatalf("shared-crash: no stale reads served; the stale_max assert is vacuous\n%s", srep.Render())
	}
}

// The acceptance criterion: a chaos run renders byte-identically on
// reruns and at any worker count.
func TestChaosRunByteIdentical(t *testing.T) {
	scs, err := Load(filepath.Join("..", "..", "examples", "chaos", "crash.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		var b strings.Builder
		for _, rep := range RunAll(scs, workers) {
			b.WriteString(rep.Render())
		}
		return b.String()
	}
	w0, w1, w8, again := render(0), render(1), render(8), render(8)
	if w0 != w1 || w1 != w8 {
		t.Fatal("chaos output differs between -workers 0, 1 and 8")
	}
	if w8 != again {
		t.Fatal("chaos output differs between identical reruns")
	}
}

// Events fire in At order even when written out of order in the file,
// a restart listed before its crash included, and the event log records
// firings in simulation order.
func TestEventOrderIndependence(t *testing.T) {
	shuffled := `
scenarios:
  - name: order
    fleet:
      server: filer
      file_mb: 4
      seed: 3
    events:
      - at: 300ms
        action: disk_degrade
        factor: 2
        for: 50ms
      - at: 200ms
        action: server_restart
      - action: assert_completes
      - at: 100ms
        action: loss_burst
        rate: 0.1
        for: 20ms
      - at: 150ms
        action: server_crash
`
	sorted := `
scenarios:
  - name: order
    fleet:
      server: filer
      file_mb: 4
      seed: 3
    events:
      - at: 100ms
        action: loss_burst
        rate: 0.1
        for: 20ms
      - at: 150ms
        action: server_crash
      - at: 200ms
        action: server_restart
      - at: 300ms
        action: disk_degrade
        factor: 2
        for: 50ms
      - action: assert_completes
`
	run := func(src string) string {
		scs, err := Parse([]byte(src))
		if err != nil {
			t.Fatal(err)
		}
		return Run(scs[0]).Render()
	}
	a, b := run(shuffled), run(sorted)
	if a != b {
		t.Fatalf("event order in the file changed the run:\n%s\nvs\n%s", a, b)
	}
	for _, pair := range [][2]string{{"loss_burst", "server_crash"}, {"server_crash", "server_restart"}, {"server_restart", "disk_degrade"}} {
		if i := strings.Index(a, pair[0]); i < 0 || i > strings.Index(a, pair[1]) {
			t.Fatalf("event log not in simulation order:\n%s", a)
		}
	}
}

// The report's result describes the test bed the scenario ran on: a
// fleet that leaves CPUs, cache and wsize unset gets the same defaults
// a sweep cell gets, not zeros.
func TestReportDescribesTestbed(t *testing.T) {
	scs, err := Parse([]byte(`
scenarios:
  - name: defaults
    fleet:
      server: filer
      file_mb: 1
    events:
      - action: assert_completes
`))
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(scs[0])
	if rep.Failed {
		t.Fatalf("run failed:\n%s", rep.Render())
	}
	tb := nfssim.NewTestbed(nfssim.Options{Server: nfssim.ServerFiler, Client: core.EnhancedConfig()})
	defer tb.Sim.Close()
	m := tb.Machines[0]
	cpus, cache, wsize := m.CPU.CPUs(), m.Cache.Limit(), m.Client.Config().WSize
	res := rep.Result
	if res.CPUs != cpus || res.CacheBytes != cache || res.WSize != wsize {
		t.Fatalf("report says cpus=%d cache_bytes=%d wsize=%d, test bed has %d, %d, %d",
			res.CPUs, res.CacheBytes, res.WSize, cpus, cache, wsize)
	}
	want := fmt.Sprintf("filer/enhanced/1MB/w%d/c%d/n1/m%dB/jfalse/s1.0", wsize, cpus, cache)
	if res.Name != want {
		t.Fatalf("report name %q, want %q", res.Name, want)
	}
}

// A failing assertion marks the report Failed and names the assert.
func TestFailingAssertReported(t *testing.T) {
	scs, err := Parse([]byte(`
scenarios:
  - name: greedy
    fleet:
      server: filer
      file_mb: 4
      seed: 1
    events:
      - action: assert_agg_mbps_min
        min_mbps: 10000
`))
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(scs[0])
	if !rep.Failed {
		t.Fatal("absurd throughput floor passed")
	}
	found := false
	for _, a := range rep.Asserts {
		if a.Name == "assert_agg_mbps_min" && !a.Pass {
			found = true
		}
	}
	if !found {
		t.Fatalf("failing assert not reported: %+v", rep.Asserts)
	}
	if !strings.Contains(rep.Render(), "FAIL") {
		t.Fatal("render does not show FAIL")
	}
}

// An unexpected run error with no assert_error marks the report Failed.
func TestUnexpectedErrorFails(t *testing.T) {
	scs, err := Parse([]byte(`
scenarios:
  - name: surprise
    fleet:
      server: filer
      file_mb: 4
      max_retries: 5
      time_limit: 5m
      seed: 1
    events:
      - at: 50ms
        action: server_crash
      - action: assert_completes
`))
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(scs[0])
	if !rep.Failed {
		t.Fatal("run errored (dead server) but the report passed")
	}
	if rep.Err == "" {
		t.Fatal("error not captured in the report")
	}
}

func ExampleParse() {
	scs, _ := Parse([]byte(`
scenarios:
  - name: demo
    fleet:
      server: filer
    events:
      - at: 100ms
        action: server_crash
      - at: 400ms
        action: server_restart
      - action: assert_no_data_loss
`))
	fmt.Println(scs[0].Name, scs[0].Fleet.Server, len(scs[0].Events))
	// Output: demo filer 3
}

// Each example scenario file's rendered reports are pinned byte for
// byte: the event log, the recovery counters, the assert details (the
// no-data-loss file and byte counts, the dead-server error) and the
// verdicts. The goldens are nfssweep -scenario output for each file.
func TestExampleReportsMatchGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "chaos", "*.yaml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios: %v", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".yaml")
		t.Run(name, func(t *testing.T) {
			scs, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, rep := range RunAll(scs, 1) {
				b.WriteString(rep.Render())
			}
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Fatalf("%s report differs from testdata/%s.golden:\ngot:\n%s\nwant:\n%s", name, name, got, want)
			}
		})
	}
}
