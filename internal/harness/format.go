package harness

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/stats"
)

// resultColumns is the CSV column order for per-run Results. It is part
// of the output schema documented in docs/experiments.md — extend at the
// end, never reorder.
var resultColumns = []string{
	"name", "server", "config", "file_mb", "wsize", "cpus", "cache_mb",
	"jumbo", "seed", "repeat", "calls", "write_mbps", "write_kbps",
	"flush_mbps", "close_mbps", "mean_lat_us", "median_lat_us",
	"p95_lat_us", "p99_lat_us", "max_lat_us", "soft_flushes",
	"hard_blocks", "rpcs_sent", "retransmits", "server_net_mbps",
	"send_cpu_us", "clients", "cache_bytes", "agg_mbps", "fairness",
	"min_client_mbps", "max_client_mbps",
}

func (r Result) csvRow() []string {
	return []string{
		r.Name, r.Server, r.Config,
		fmt.Sprint(r.FileMB), fmt.Sprint(r.WSize), fmt.Sprint(r.CPUs),
		fmt.Sprint(r.CacheMB), fmt.Sprint(r.Jumbo), fmt.Sprint(r.Seed),
		fmt.Sprint(r.Repeat), fmt.Sprint(r.Calls),
		fmt.Sprintf("%.2f", r.WriteMBps), fmt.Sprintf("%.1f", r.WriteKBps),
		fmt.Sprintf("%.2f", r.FlushMBps), fmt.Sprintf("%.2f", r.CloseMBps),
		fmt.Sprintf("%.1f", r.MeanLatUs), fmt.Sprintf("%.1f", r.MedianLatUs),
		fmt.Sprintf("%.1f", r.P95LatUs), fmt.Sprintf("%.1f", r.P99LatUs),
		fmt.Sprintf("%.1f", r.MaxLatUs),
		fmt.Sprint(r.SoftFlushes), fmt.Sprint(r.HardBlocks),
		fmt.Sprint(r.RPCsSent), fmt.Sprint(r.Retransmits),
		fmt.Sprintf("%.2f", r.ServerNetMBps), fmt.Sprintf("%.1f", r.SendCPUUs),
		fmt.Sprint(r.Clients), fmt.Sprint(r.CacheBytes),
		fmt.Sprintf("%.2f", r.AggMBps), fmt.Sprintf("%.3f", r.Fairness),
		fmt.Sprintf("%.2f", r.MinClientMBps), fmt.Sprintf("%.2f", r.MaxClientMBps),
	}
}

// ResultsCSV renders results as CSV, one row per run, in input order.
func ResultsCSV(results []Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(resultColumns, ",") + "\n")
	for _, r := range results {
		b.WriteString(strings.Join(r.csvRow(), ",") + "\n")
	}
	return b.String()
}

// ResultsJSON renders results as an indented JSON array.
func ResultsJSON(results []Result) string {
	if results == nil {
		results = []Result{}
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		panic(err) // Result has no unmarshalable fields
	}
	return string(buf) + "\n"
}

// ResultsTable renders results as an aligned human-readable table with
// the high-signal columns.
func ResultsTable(results []Result) string {
	t := stats.NewTable("",
		"server", "config", "wl", "MB", "wsize", "cpus", "cl", "cacheMB", "jumbo", "tr", "loss", "seed",
		"write MB/s", "flush MB/s", "agg MB/s", "fair", "mean us", "p99 us", "soft", "rpcs", "rexmt")
	for _, r := range results {
		t.AddRow(r.Server, r.Config, r.Workload,
			fmt.Sprint(r.FileMB), fmt.Sprint(r.WSize), fmt.Sprint(r.CPUs),
			fmt.Sprint(r.Clients), fmt.Sprint(r.CacheMB), fmt.Sprint(r.Jumbo),
			r.Transport, fmt.Sprintf("%g", r.Loss),
			fmt.Sprint(r.Seed),
			fmt.Sprintf("%.1f", r.WriteMBps), fmt.Sprintf("%.1f", r.FlushMBps),
			fmt.Sprintf("%.1f", r.AggMBps), fmt.Sprintf("%.3f", r.Fairness),
			fmt.Sprintf("%.1f", r.MeanLatUs), fmt.Sprintf("%.1f", r.P99LatUs),
			fmt.Sprint(r.SoftFlushes), fmt.Sprint(r.RPCsSent), fmt.Sprint(r.Retransmits))
	}
	return t.String()
}

var aggregateColumns = []string{
	"key", "server", "config", "file_mb", "wsize", "cpus", "cache_mb",
	"jumbo", "n", "write_mbps_mean", "write_mbps_stddev",
	"flush_mbps_mean", "flush_mbps_stddev", "mean_lat_us_mean",
	"mean_lat_us_stddev", "p99_lat_us_mean", "p99_lat_us_stddev",
	"clients", "cache_bytes", "agg_mbps_mean", "agg_mbps_stddev",
	"fairness_mean", "fairness_stddev",
}

// AggregatesCSV renders per-cell summaries as CSV.
func AggregatesCSV(aggs []Aggregate) string {
	var b strings.Builder
	b.WriteString(strings.Join(aggregateColumns, ",") + "\n")
	for _, a := range aggs {
		row := []string{
			a.Key, a.Server, a.Config,
			fmt.Sprint(a.FileMB), fmt.Sprint(a.WSize), fmt.Sprint(a.CPUs),
			fmt.Sprint(a.CacheMB), fmt.Sprint(a.Jumbo), fmt.Sprint(a.N),
			fmt.Sprintf("%.2f", a.WriteMBpsMean), fmt.Sprintf("%.3f", a.WriteMBpsStddev),
			fmt.Sprintf("%.2f", a.FlushMBpsMean), fmt.Sprintf("%.3f", a.FlushMBpsStddev),
			fmt.Sprintf("%.1f", a.MeanLatUsMean), fmt.Sprintf("%.2f", a.MeanLatUsStddev),
			fmt.Sprintf("%.1f", a.P99LatUsMean), fmt.Sprintf("%.2f", a.P99LatUsStddev),
			fmt.Sprint(a.Clients), fmt.Sprint(a.CacheBytes),
			fmt.Sprintf("%.2f", a.AggMBpsMean), fmt.Sprintf("%.3f", a.AggMBpsStddev),
			fmt.Sprintf("%.3f", a.FairnessMean), fmt.Sprintf("%.4f", a.FairnessStddev),
		}
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	return b.String()
}

// AggregatesJSON renders per-cell summaries as an indented JSON array.
func AggregatesJSON(aggs []Aggregate) string {
	if aggs == nil {
		aggs = []Aggregate{}
	}
	buf, err := json.MarshalIndent(aggs, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(buf) + "\n"
}

// AggregatesTable renders per-cell summaries as an aligned table.
func AggregatesTable(aggs []Aggregate) string {
	t := stats.NewTable("",
		"server", "config", "wl", "MB", "cl", "cacheMB", "tr", "loss", "n",
		"write MB/s", "±", "agg MB/s", "±", "fair", "mean us", "±", "p99 us", "±")
	for _, a := range aggs {
		t.AddRow(a.Server, a.Config, a.Workload, fmt.Sprint(a.FileMB),
			fmt.Sprint(a.Clients), fmt.Sprint(a.CacheMB),
			a.Transport, fmt.Sprintf("%g", a.Loss), fmt.Sprint(a.N),
			fmt.Sprintf("%.1f", a.WriteMBpsMean), fmt.Sprintf("%.2f", a.WriteMBpsStddev),
			fmt.Sprintf("%.1f", a.AggMBpsMean), fmt.Sprintf("%.2f", a.AggMBpsStddev),
			fmt.Sprintf("%.3f", a.FairnessMean),
			fmt.Sprintf("%.1f", a.MeanLatUsMean), fmt.Sprintf("%.2f", a.MeanLatUsStddev),
			fmt.Sprintf("%.1f", a.P99LatUsMean), fmt.Sprintf("%.2f", a.P99LatUsStddev))
	}
	return t.String()
}
