package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// minPairs is the fewest base/head run pairs compare accepts.
const minPairs = 10

// bound is an end-to-end metric as BENCHMARK.json declares it.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict compares one metric of one workload over paired runs: base[i]
// and head[i] ran back to back. An improvement needs the head to win at
// least nine pairs in ten (ties count for neither) and a median gap wider
// than the base runs' interquartile range. Otherwise the head is worse
// when its median trails the base's by more than the bound, and
// unresolved when the base runs spread wider than the bound, unless
// every head run beats every base run.
func verdict(b bound, base, head []float64) (v string, wins int) {
	better := func(x, y float64) bool {
		if b.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := range base {
		if better(head[i], base[i]) {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	_, hmed, _ := quartiles(head)
	gap := hmed - bmed
	if gap < 0 {
		gap = -gap
	}
	if better(hmed, bmed) && 10*wins >= 9*len(base) && gap > bq3-bq1 {
		return "improved", wins
	}
	limit := bmed * (1 + b.Bound)
	if b.Better == "higher" {
		limit = bmed * (1 - b.Bound)
	}
	if (bq3-bq1)/bmed > b.Bound {
		bestBase, worstHead := base[0], head[0]
		for i := range base {
			if better(base[i], bestBase) {
				bestBase = base[i]
			}
			if better(worstHead, head[i]) {
				worstHead = head[i]
			}
		}
		if better(worstHead, bestBase) {
			return "no worse", wins
		}
		return "unresolved", wins
	}
	if better(limit, hmed) {
		return "worse", wins
	}
	return "no worse", wins
}

// compare implements "bench compare": paired -json reports of the parent
// (-base) and the change (-head), one verdict per workload and metric.
// It exits 1 when any verdict is "worse".
func compare(args []string, stdout, stderr io.Writer) int {
	benchPath := "BENCHMARK.json"
	var base, head []string
	var list *[]string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; a {
		case "-base", "--base":
			list = &base
		case "-head", "--head":
			list = &head
		case "-benchmark", "--benchmark":
			if i+1 == len(args) {
				fmt.Fprintln(stderr, "bench compare: -benchmark needs a file")
				return 2
			}
			i++
			benchPath, list = args[i], nil
		default:
			if list == nil || strings.HasPrefix(a, "-") {
				fmt.Fprintf(stderr, "bench compare: unexpected argument %q\n", a)
				return 2
			}
			*list = append(*list, a)
		}
	}
	if len(base) != len(head) || len(base) < minPairs {
		fmt.Fprintf(stderr, "bench compare: want at least %d -base and as many -head reports, got %d and %d\n",
			minPairs, len(base), len(head))
		return 2
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := readJSON(benchPath, &spec); err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 1
	}
	bases, err := readReports(base)
	if err == nil {
		var heads []report
		if heads, err = readReports(head); err == nil {
			return comparePairs(stdout, spec.EndToEnd, bases, heads)
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	return 1
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readReports(paths []string) ([]report, error) {
	out := make([]report, len(paths))
	for i, p := range paths {
		if err := readJSON(p, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// comparePairs prints, per workload present in every report, each
// metric's base and head median and quartiles, the head's win share and
// the verdict, then one summary row per workload.
func comparePairs(w io.Writer, bounds []bound, bases, heads []report) int {
	pairs := len(bases)
	var names []string
	for name := range bases[0].Workloads {
		present := true
		for i := 0; i < pairs; i++ {
			_, inBase := bases[i].Workloads[name]
			_, inHead := heads[i].Workloads[name]
			present = present && inBase && inHead
		}
		if present {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	worse := false
	summary := make([][]string, len(names))
	for wi, name := range names {
		var baseFailed, headFailed int
		for i := 0; i < pairs; i++ {
			baseFailed += bases[i].Workloads[name].Failed
			headFailed += heads[i].Workloads[name].Failed
		}
		fmt.Fprintf(w, "%s: %d pairs, failed ops base %d head %d\n", name, pairs, baseFailed, headFailed)
		for _, b := range bounds {
			bv, hv := make([]float64, pairs), make([]float64, pairs)
			for i := 0; i < pairs; i++ {
				bv[i] = bases[i].Workloads[name].Metrics[b.Name].Value
				hv[i] = heads[i].Workloads[name].Metrics[b.Name].Value
			}
			v, wins := verdict(b, bv, hv)
			if v == "improved" && headFailed > baseFailed {
				v = "no worse" // a gain does not count when more ops fail
			}
			worse = worse || v == "worse"
			bq1, bmed, bq3 := quartiles(bv)
			hq1, hmed, hq3 := quartiles(hv)
			fmt.Fprintf(w, "  %-20s base %.5g [%.5g, %.5g]  head %.5g [%.5g, %.5g] %s  wins %d/%d  %s\n",
				b.Name, bmed, bq1, bq3, hmed, hq1, hq3, b.Unit, wins, pairs, v)
			summary[wi] = append(summary[wi], v)
		}
	}
	fmt.Fprintf(w, "\n%-12s", "workload")
	for _, b := range bounds {
		fmt.Fprintf(w, " %-19s", b.Name)
	}
	fmt.Fprintln(w)
	for wi, name := range names {
		fmt.Fprintf(w, "%-12s", name)
		for _, v := range summary[wi] {
			fmt.Fprintf(w, " %-19s", v)
		}
		fmt.Fprintln(w)
	}
	if worse {
		return 1
	}
	return 0
}
