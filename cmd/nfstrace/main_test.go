package main

import (
	"flag"
	"strconv"
	"strings"
	"testing"
)

// checkTraceCSV asserts the output is well-formed two-column CSV
// (call,latency_us header plus numeric rows) and returns the row count.
func checkTraceCSV(t *testing.T, out string) int {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace has %d lines, want header + rows", len(lines))
	}
	if lines[0] != "call,latency_us" {
		t.Fatalf("header = %q", lines[0])
	}
	for i, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 2 {
			t.Fatalf("row %d has %d columns: %q", i, len(fields), line)
		}
		call, err := strconv.Atoi(fields[0])
		if err != nil || call != i {
			t.Fatalf("row %d call index = %q", i, fields[0])
		}
		if lat, err := strconv.ParseFloat(fields[1], 64); err != nil || lat < 0 {
			t.Fatalf("row %d latency = %q", i, fields[1])
		}
	}
	return len(lines) - 1
}

// fig2 must emit the stock client's full 40 MB trace: one row per 8 KB
// write() call.
func TestFig2EmitsWellFormedCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 40 MB Figure 2 simulation")
	}
	out, err := traceCSV("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if rows := checkTraceCSV(t, out); rows != 40<<20/8192 {
		t.Fatalf("fig2 rows = %d, want %d", rows, 40<<20/8192)
	}
}

// setFlags applies flag values for one test and restores the previous
// values afterward, since the axis flags are package globals.
func setFlags(t *testing.T, kv map[string]string) {
	t.Helper()
	for name, value := range kv {
		prev := flag.Lookup(name).Value.String()
		if err := flag.Set(name, value); err != nil {
			t.Fatalf("set -%s=%s: %v", name, value, err)
		}
		t.Cleanup(func() { flag.Set(name, prev) })
	}
}

// custom must honor the flags, including the workload selector — one
// trace row per chunk call for the sequential, random, and group-commit
// workloads alike.
func TestCustomEmitsWellFormedCSV(t *testing.T) {
	for _, wl := range []string{"write", "read", "randread", "randwrite", "db"} {
		setFlags(t, map[string]string{"sizes": "2", "workload": wl})
		out, err := traceCSV("custom")
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if rows := checkTraceCSV(t, out); rows != 2<<20/8192 {
			t.Fatalf("%s rows = %d, want %d", wl, rows, 2<<20/8192)
		}
	}
}

// A bad flag, a grid of more than one cell, and a cell the axis rules
// reject each fail custom with an error, before any simulation starts.
func TestUnknownInputsError(t *testing.T) {
	if _, err := traceCSV("fig9"); err == nil {
		t.Fatal("unknown trace should error")
	}
	for _, tc := range []struct{ flags, want string }{
		{"servers=netapp", "-servers"},
		{"configs=turbo", "-configs"},
		{"workload=scan", "-workload"},
		{"sizes=1,2", "describe 2"},
		{"servers=local workload=shared sizes=1", "-workload shared needs an NFS server (-servers local"},
		{"servers=local workload=zipf sizes=1", "-workload zipf needs an NFS server (-servers local"},
	} {
		t.Run(tc.flags, func(t *testing.T) {
			kv := map[string]string{}
			for _, f := range strings.Fields(tc.flags) {
				name, value, _ := strings.Cut(f, "=")
				kv[name] = value
			}
			setFlags(t, kv)
			if _, err := traceCSV("custom"); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// The usage string must mention every supported subcommand.
func TestUsageMentionsAllSubcommands(t *testing.T) {
	line := usageLine()
	for _, sub := range []string{"fig2", "fig3", "fig4", "custom", "read"} {
		if !strings.Contains(line, sub) {
			t.Fatalf("usage %q missing subcommand %q", line, sub)
		}
	}
}
