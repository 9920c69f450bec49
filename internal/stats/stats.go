// Package stats provides the measurement machinery the paper's benchmark
// relies on: per-call latency traces (Figures 2–4), fixed-width latency
// histograms (Figures 5–6), summary statistics with outlier-excluded means
// (§3.3's 139.6 µs vs 482.1 µs comparison) and (x, y) series for the
// throughput-vs-file-size plots (Figures 1 and 7).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Trace is an append-only record of per-call latencies, in call order.
// This is the "actual, not average" latency record §2.3 argues for: jitter
// is invisible in means but obvious in the raw trace.
type Trace struct {
	name    string
	samples []time.Duration
}

// NewTrace returns an empty named trace.
func NewTrace(name string) *Trace { return &Trace{name: name} }

// Add appends one latency sample.
func (t *Trace) Add(d time.Duration) { t.samples = append(t.samples, d) }

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.samples) }

// Samples returns the underlying samples (not a copy; callers must not
// modify it).
func (t *Trace) Samples() []time.Duration { return t.samples }

// Summary computes summary statistics over the whole trace.
func (t *Trace) Summary() Summary { return Summarize(t.samples) }

// SummaryExcluding computes summary statistics over samples strictly below
// cutoff, mirroring the paper's "excluding the 37 calls exceeding
// 1 millisecond" methodology.
func (t *Trace) SummaryExcluding(cutoff time.Duration) Summary {
	kept := make([]time.Duration, 0, len(t.samples))
	for _, s := range t.samples {
		if s < cutoff {
			kept = append(kept, s)
		}
	}
	return Summarize(kept)
}

// CountAbove returns how many samples are >= cutoff.
func (t *Trace) CountAbove(cutoff time.Duration) int {
	n := 0
	for _, s := range t.samples {
		if s >= cutoff {
			n++
		}
	}
	return n
}

// SpikeIndices returns the indices of samples >= cutoff, in order. The
// fig2 analysis uses this to verify the ~every-85-calls periodicity.
func (t *Trace) SpikeIndices(cutoff time.Duration) []int {
	var idx []int
	for i, s := range t.samples {
		if s >= cutoff {
			idx = append(idx, i)
		}
	}
	return idx
}

// SpikePeriod returns the mean gap, in calls, between successive spikes
// (>= cutoff), or 0 if there are fewer than two spikes.
func (t *Trace) SpikePeriod(cutoff time.Duration) float64 {
	idx := t.SpikeIndices(cutoff)
	if len(idx) < 2 {
		return 0
	}
	return float64(idx[len(idx)-1]-idx[0]) / float64(len(idx)-1)
}

// Slope returns the least-squares slope of latency versus call index, in
// nanoseconds per call. Figure 3's "latency grows over time" shows up as a
// clearly positive slope; Figure 4's flat trace as a near-zero one.
func (t *Trace) Slope() float64 {
	n := float64(len(t.samples))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, s := range t.samples {
		x, y := float64(i), float64(s)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// QuietGap scans the trace in windows of the given size and returns the
// first window run whose latency standard deviation falls below frac of
// the whole-trace standard deviation, as (startCall, endCall, true).
// Figure 4 shows such a "gap of greatly reduced jitter for a few hundred
// calls" when the filer stops responding during a checkpoint and the
// flush daemon goes quiet (§3.5 explains the mechanism).
func (t *Trace) QuietGap(window int, frac float64) (start, end int, ok bool) {
	if window <= 0 || t.Len() < 4*window {
		return 0, 0, false
	}
	base := float64(Summarize(t.samples).Stddev)
	if base == 0 {
		return 0, 0, false
	}
	inGap := false
	for i := 0; i+window <= t.Len(); i += window {
		sd := float64(Summarize(t.samples[i : i+window]).Stddev)
		quiet := sd < frac*base
		switch {
		case quiet && !inGap:
			start, inGap = i, true
		case quiet && inGap:
			// extend
		case !quiet && inGap:
			return start, i, true
		}
	}
	if inGap {
		return start, t.Len(), true
	}
	return 0, 0, false
}

// CSV renders the trace as "call,latency_us" rows, the format the paper's
// scatter plots (Figures 2–4) are built from.
func (t *Trace) CSV() string {
	var b strings.Builder
	b.WriteString("call,latency_us\n")
	for i, s := range t.samples {
		fmt.Fprintf(&b, "%d,%.1f\n", i, float64(s)/float64(time.Microsecond))
	}
	return b.String()
}

// Summary holds aggregate statistics over a set of latency samples.
type Summary struct {
	Count  int
	Min    time.Duration
	Max    time.Duration
	Mean   time.Duration
	Median time.Duration
	P95    time.Duration
	P99    time.Duration
	Stddev time.Duration
}

// Summarize computes a Summary from samples.
func Summarize(samples []time.Duration) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum float64
	for _, s := range sorted {
		sum += float64(s)
	}
	mean := sum / float64(len(sorted))
	var varsum float64
	for _, s := range sorted {
		d := float64(s) - mean
		varsum += d * d
	}
	return Summary{
		Count:  len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   time.Duration(mean),
		Median: percentile(sorted, 0.50),
		P95:    percentile(sorted, 0.95),
		P99:    percentile(sorted, 0.99),
		Stddev: time.Duration(math.Sqrt(varsum / float64(len(sorted)))),
	}
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%v mean=%v median=%v p95=%v p99=%v max=%v",
		s.Count, s.Min, s.Mean, s.Median, s.P95, s.P99, s.Max)
}

// Histogram is a fixed-bucket-width latency histogram with an implicit
// overflow bucket, the shape of Figures 5 and 6.
type Histogram struct {
	name     string
	width    time.Duration
	counts   []int
	overflow int
	total    int
}

// NewHistogram returns a histogram with n buckets of the given width plus
// an overflow bucket.
func NewHistogram(name string, width time.Duration, n int) *Histogram {
	if width <= 0 || n <= 0 {
		panic("stats: histogram needs positive width and bucket count")
	}
	return &Histogram{name: name, width: width, counts: make([]int, n)}
}

// Add records one sample.
func (h *Histogram) Add(d time.Duration) {
	h.total++
	i := int(d / h.width)
	if d < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		h.overflow++
		return
	}
	h.counts[i]++
}

// AddTrace records every sample in tr.
func (h *Histogram) AddTrace(tr *Trace) {
	for _, s := range tr.Samples() {
		h.Add(s)
	}
}

// TailCount returns the number of samples at or above from; the paper's
// "jitter" comparison is the relative size of this tail.
func (h *Histogram) TailCount(from time.Duration) int {
	n := h.overflow
	start := int(from / h.width)
	for i := start; i < len(h.counts); i++ {
		n += h.counts[i]
	}
	return n
}

func (h *Histogram) String() string {
	max := 1
	for _, c := range h.counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d, bucket=%v)\n", h.name, h.total, h.width)
	for i, c := range h.counts {
		bar := strings.Repeat("#", c*50/max)
		fmt.Fprintf(&b, "%7.2fms %6d %s\n", float64(i)*float64(h.width)/float64(time.Millisecond), c, bar)
	}
	fmt.Fprintf(&b, " overflow %6d\n", h.overflow)
	return b.String()
}

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is a named sequence of points, e.g. one curve of Figure 1
// (x = file size in MB, y = write throughput in KB/s).
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// CSV renders one or more series with a shared x column. Series are
// aligned by point index; all series must have equal length.
func CSV(series ...*Series) string {
	var b strings.Builder
	b.WriteString("x")
	for _, s := range series {
		b.WriteString("," + s.Name)
	}
	b.WriteString("\n")
	if len(series) == 0 {
		return b.String()
	}
	n := len(series[0].Points)
	for _, s := range series {
		if len(s.Points) != n {
			panic("stats: CSV series length mismatch")
		}
	}
	for i := 0; i < n; i++ {
		// Byte-identical to the old %g, but the encoding is pinned
		// explicitly so goldens survive fmt changes (keyfmt).
		b.WriteString(strconv.FormatFloat(series[0].Points[i].X, 'g', -1, 64))
		for _, s := range series {
			fmt.Fprintf(&b, ",%.1f", s.Points[i].Y)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table is a simple labeled-rows/columns table used to print the paper's
// Table 1.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteString("\n")
	for _, r := range t.rows {
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// MeanStddev returns the mean and population standard deviation of xs
// (0, 0 for an empty slice). The sweep harness uses it to fold repeated
// runs of one scenario into a summary.
func MeanStddev(xs []float64) (mean, stddev float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	var varsum float64
	for _, x := range xs {
		d := x - mean
		varsum += d * d
	}
	return mean, math.Sqrt(varsum / float64(len(xs)))
}

// JainFairness returns Jain's fairness index over xs:
// (Σx)² / (n·Σx²). It is 1 when every share is equal and 1/n when one
// participant takes everything — the scale-out experiments use it to
// check that N client machines split a shared server evenly. An empty
// slice yields 0; an all-zero slice (everyone equally starved) yields 1.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumsq float64
	for _, x := range xs {
		sum += x
		sumsq += x * x
	}
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumsq)
}

// MBps converts bytes moved in elapsed virtual time to MB/s (MB = 1e6
// bytes, the unit the paper's "MBps" figures use).
func MBps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / elapsed.Seconds()
}

// KBps converts bytes moved in elapsed virtual time to KB/s (KB = 1e3
// bytes), the y-axis unit of Figures 1 and 7.
func KBps(bytes int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1e3 / elapsed.Seconds()
}
