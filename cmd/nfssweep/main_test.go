package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bonnie"
	"repro/internal/harness"
)

// setFlags applies flag values for one test and restores the previous
// values afterward, since the axis flags are package globals.
func setFlags(t *testing.T, kv map[string]string) {
	t.Helper()
	for name, value := range kv {
		f := flag.Lookup(name)
		if f == nil {
			t.Fatalf("no flag -%s", name)
		}
		prev := f.Value.String()
		if err := flag.Set(name, value); err != nil {
			t.Fatalf("set -%s=%s: %v", name, value, err)
		}
		t.Cleanup(func() { flag.Set(name, prev) })
	}
}

// mustGrid builds the grid the current flag values declare.
func mustGrid(t *testing.T) harness.Grid {
	t.Helper()
	g, err := buildGrid()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The default flag values build the classic one-cell write grid, with
// none of the newer axes leaking into the scenario key.
func TestBuildGridDefaults(t *testing.T) {
	scens := mustGrid(t).Expand()
	if len(scens) != 1 {
		t.Fatalf("default grid expanded to %d scenarios, want 1", len(scens))
	}
	sc := scens[0]
	if sc.Workload != bonnie.WorkloadWrite || sc.FileMB != 40 {
		t.Fatalf("default scenario = %+v", sc)
	}
	if key := sc.Key(); strings.Contains(key, "/zipf") || strings.Contains(key, "/ac") {
		t.Fatalf("default key %q mentions zipf axes", key)
	}
}

// The zipf flags thread through to the grid: populations, skews, and
// cache windows are axes; the op mix is a scalar knob.
func TestBuildGridZipfAxes(t *testing.T) {
	setFlags(t, map[string]string{
		"workload":  "zipf",
		"sizes":     "4",
		"files":     "100,1000",
		"zipf-s":    "1.2,uniform",
		"opmix":     "10/30/40/15/5",
		"actimeout": "off,default",
	})
	scens := mustGrid(t).Expand()
	if len(scens) != 8 { // 2 populations x 2 skews x 2 cache windows
		t.Fatalf("zipf grid expanded to %d scenarios, want 8", len(scens))
	}
	wantMix := bonnie.OpMix{Create: 10, Write: 30, Read: 40, Stat: 15, Remove: 5}
	keys := map[string]bool{}
	for _, sc := range scens {
		if sc.Workload != bonnie.WorkloadZipf || sc.Mix != wantMix {
			t.Fatalf("scenario missing zipf knobs: %+v", sc)
		}
		keys[sc.Key()] = true
	}
	if len(keys) != 8 {
		t.Fatalf("zipf axes collapsed into %d keys", len(keys))
	}
}

// Every axis flag rejects a bad value, and the error names the flag.
func TestBuildGridRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"servers", "netapp"},
		{"configs", "turbo"},
		{"sizes", "0"},
		{"wsizes", "1000"},
		{"wsizes", "-8192"},
		{"cpus", "1,,2"},
		{"clients", "0"},
		{"cache", "x"},
		{"jumbo", "maybe"},
		{"transport", "sctp"},
		{"loss", "1"},
		{"workload", "scan"},
		{"files", "-3"},
		{"zipf-s", "-2"},
		{"opmix", "50/50"},
		{"actimeout", "soon"},
		{"shared", "101"},
		{"consistency", "eventual"},
		{"readlag", "-1ms"},
		{"fsync-every", "-1"},
		{"netjitter", "-1us"},
		{"seed", "0"},
		{"repeats", "0"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			setFlags(t, map[string]string{tc.flag: tc.value})
			_, err := buildGrid()
			if err == nil {
				t.Fatalf("-%s=%s accepted", tc.flag, tc.value)
			}
			if !strings.HasPrefix(err.Error(), "-"+tc.flag+" ") &&
				!strings.HasPrefix(err.Error(), "-"+tc.flag+":") {
				t.Fatalf("-%s=%s: error %q does not name the flag", tc.flag, tc.value, err)
			}
		})
	}
}

// docs/experiments.md lists every flag nfssweep has.
func TestFlagsDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/experiments.md")
	if err != nil {
		t.Fatal(err)
	}
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return // the testing package's own flags
		}
		if !strings.Contains(string(doc), "`-"+f.Name+"`") {
			t.Errorf("docs/experiments.md does not document `-%s`", f.Name)
		}
	})
}

func TestRenderersFor(t *testing.T) {
	for format, ext := range map[string]string{"csv": "csv", "json": "json", "table": "txt"} {
		r := renderersFor(format)
		if r.ext != ext || r.results == nil || r.aggregates == nil {
			t.Fatalf("renderersFor(%q) = %+v", format, r)
		}
	}
}

// One tiny cell, run twice, through the same path main drives: the
// default grid shrunk to 1 MB runs with two repeats, produces two result
// rows and one two-run aggregate, and both render on every output format.
func TestOneScenarioRuns(t *testing.T) {
	setFlags(t, map[string]string{"sizes": "1", "repeats": "2"})
	scens := mustGrid(t).Expand()
	if len(scens) != 2 {
		t.Fatalf("expanded %d scenarios, want 2 repeats of one cell", len(scens))
	}
	results := (&harness.Runner{Workers: 1}).Run(scens)
	if len(results) != 2 || results[0].WriteMBps <= 0 {
		t.Fatalf("results = %+v", results)
	}
	aggs := harness.AggregateResults(results)
	if len(aggs) != 1 || aggs[0].N != 2 {
		t.Fatalf("aggregates = %+v, want one cell of 2 runs", aggs)
	}
	for _, format := range []string{"csv", "json", "table"} {
		r := renderersFor(format)
		if out := r.results(results); !strings.Contains(out, "filer") {
			t.Fatalf("%s results missing scenario row:\n%s", format, out)
		}
		out := r.aggregates(aggs)
		if !strings.Contains(out, "filer") {
			t.Fatalf("%s aggregates missing the cell:\n%s", format, out)
		}
		switch format {
		case "csv":
			rows := strings.Split(strings.TrimSpace(out), "\n")
			if len(rows) != 2 || strings.Split(rows[1], ",")[8] != "2" {
				t.Fatalf("aggregate CSV wants a header and one row with n=2:\n%s", out)
			}
		case "json":
			var got []harness.Aggregate
			if err := json.Unmarshal([]byte(out), &got); err != nil || !reflect.DeepEqual(got, aggs) {
				t.Fatalf("aggregate JSON does not round-trip (%v):\n%s", err, out)
			}
		case "table":
			if !strings.Contains(out, "write MB/s") || len(strings.Split(strings.TrimSpace(out), "\n")) < 2 {
				t.Fatalf("aggregate table wants a header and a row:\n%s", out)
			}
		}
	}
}
