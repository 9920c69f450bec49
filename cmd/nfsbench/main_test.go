package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// Every experiment name is unique, documented, and renderable, and the
// experiments the paper's evaluation and its extensions need are
// registered.
func TestRunnersWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments.Registry {
		if e.Name == "" || e.Desc == "" || (e.Render == nil && e.Columns == nil) {
			t.Fatalf("malformed experiment %+v", e)
		}
		if e.Render == nil && e.Grid == nil {
			t.Fatalf("table experiment %q has no grid", e.Name)
		}
		if seen[e.Name] {
			t.Fatalf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"fig1", "fig7", "loss", "read", "random", "db", "zipf", "concurrent", "coherence", "chaos"} {
		if !seen[want] {
			t.Fatalf("experiment %q not registered", want)
		}
	}
}

// The usage text lists every registered experiment with its description
// starting in one column, so `nfsbench -h` never drifts from the
// registry and long names never push a description out of line.
func TestUsageListsEveryExperiment(t *testing.T) {
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	usage()
	w.Close()
	os.Stderr = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	descCol := -1
	for _, e := range experiments.Registry {
		line := "  " + e.Name + " "
		i := strings.Index(string(out), line)
		if i < 0 {
			t.Fatalf("usage output missing experiment %q:\n%s", e.Name, out)
		}
		rest := string(out[i+len(line):])
		col := len(line) + len(rest) - len(strings.TrimLeft(rest, " "))
		if descCol >= 0 && col != descCol {
			t.Fatalf("description of %q starts at column %d, others at %d:\n%s", e.Name, col, descCol, out)
		}
		descCol = col
	}
	if !strings.Contains(string(out), "all") {
		t.Fatalf("usage output missing the all pseudo-experiment:\n%s", out)
	}
}

// `nfsbench -quick all` is pinned byte for byte against a golden
// captured before the experiments became registry specs, so every table,
// note and footer survives any refactor of how they are produced.
// Regenerate only for a deliberate model change:
//
//	go run ./cmd/nfsbench -quick all > cmd/nfsbench/testdata/quick_all.golden
func TestQuickAllMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick_all.golden")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	writeAll(&b, true)
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("output differs from golden at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, golden %d", len(gl), len(wl))
}
