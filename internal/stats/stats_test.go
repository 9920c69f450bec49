package stats

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func us(n int) time.Duration { return time.Duration(n) * time.Microsecond }

func TestTraceBasics(t *testing.T) {
	tr := NewTrace("w", 0)
	for _, v := range []int{100, 200, 300} {
		tr.Add(us(v))
	}
	if tr.Name() != "w" || tr.Len() != 3 || tr.Samples()[1] != us(200) {
		t.Fatalf("trace basics wrong: %v", tr.Samples())
	}
	s := tr.Summary()
	if s.Mean != us(200) || s.Min != us(100) || s.Max != us(300) {
		t.Fatalf("summary = %+v", s)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummaryPercentiles(t *testing.T) {
	var samples []time.Duration
	for i := 1; i <= 100; i++ {
		samples = append(samples, us(i))
	}
	s := Summarize(samples)
	if s.Median != us(50) {
		t.Fatalf("median = %v", s.Median)
	}
	if s.P95 != us(95) {
		t.Fatalf("p95 = %v", s.P95)
	}
	if s.P99 != us(99) {
		t.Fatalf("p99 = %v", s.P99)
	}
}

// Reproduces the paper's §3.3 arithmetic: 37 spikes of >19 ms out of 2560
// calls inflate the mean from ~140 µs to ~482 µs (3.45x).
func TestSummaryExcludingMatchesPaperArithmetic(t *testing.T) {
	tr := NewTrace("fig2", 0)
	for i := 0; i < 2560; i++ {
		tr.Add(us(140))
	}
	spikes := 37
	for i := 0; i < spikes; i++ {
		// "over 19 milliseconds"; ~24 ms reproduces the reported means.
		tr.samples[i*(2560/spikes)] = 24 * time.Millisecond
	}
	all := tr.Summary().Mean
	excl := tr.SummaryExcluding(time.Millisecond).Mean
	ratio := float64(all) / float64(excl)
	if ratio < 3.0 || ratio > 4.0 {
		t.Fatalf("inflation ratio = %.2f, want ~3.45", ratio)
	}
	if got := tr.CountAbove(time.Millisecond); got != spikes {
		t.Fatalf("CountAbove = %d, want %d", got, spikes)
	}
}

func TestSpikePeriod(t *testing.T) {
	tr := NewTrace("spiky", 0)
	for i := 0; i < 500; i++ {
		if i%85 == 0 && i > 0 {
			tr.Add(20 * time.Millisecond)
		} else {
			tr.Add(us(150))
		}
	}
	p := tr.SpikePeriod(time.Millisecond)
	if p != 85 {
		t.Fatalf("spike period = %v, want 85", p)
	}
	if got := len(tr.SpikeIndices(time.Millisecond)); got != 5 {
		t.Fatalf("spikes = %d, want 5", got)
	}
	if NewTrace("x", 0).SpikePeriod(time.Millisecond) != 0 {
		t.Fatal("empty trace should have period 0")
	}
}

func TestSlopeDetectsGrowth(t *testing.T) {
	grow := NewTrace("fig3", 0)
	flat := NewTrace("fig4", 0)
	for i := 0; i < 1000; i++ {
		grow.Add(us(100 + i))
		flat.Add(us(140))
	}
	if s := grow.Slope(); math.Abs(s-1000) > 1 { // 1µs per call = 1000ns
		t.Fatalf("grow slope = %v, want ~1000 ns/call", s)
	}
	if s := flat.Slope(); s != 0 {
		t.Fatalf("flat slope = %v, want 0", s)
	}
	if NewTrace("tiny", 0).Slope() != 0 {
		t.Fatal("short trace slope should be 0")
	}
}

func TestTraceCSV(t *testing.T) {
	tr := NewTrace("t", 0)
	tr.Add(us(150))
	csv := tr.CSV()
	if !strings.HasPrefix(csv, "call,latency_us\n0,150.0\n") {
		t.Fatalf("csv = %q", csv)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("fig5", 60*time.Microsecond, 9)
	h.Add(us(0))
	h.Add(us(59))
	h.Add(us(60))
	h.Add(us(530))
	h.Add(us(1000)) // overflow
	h.Add(-us(5))   // clamped to bucket 0
	b := h.Buckets()
	if b[0] != 3 { // 0, 59, -5
		t.Fatalf("bucket0 = %d", b[0])
	}
	if b[1] != 1 || b[8] != 1 {
		t.Fatalf("buckets = %v", b)
	}
	if h.Overflow() != 1 || h.Total() != 6 {
		t.Fatalf("overflow=%d total=%d", h.Overflow(), h.Total())
	}
	if h.BucketWidth() != 60*time.Microsecond {
		t.Fatalf("width = %v", h.BucketWidth())
	}
}

func TestHistogramTailCount(t *testing.T) {
	h := NewHistogram("h", 60*time.Microsecond, 9)
	for _, v := range []int{50, 100, 200, 300, 400, 700} {
		h.Add(us(v))
	}
	if got := h.TailCount(us(180)); got != 4 { // 200,300,400,700
		t.Fatalf("tail = %d, want 4", got)
	}
}

func TestHistogramAddTraceAndRender(t *testing.T) {
	tr := NewTrace("t", 0)
	for i := 0; i < 10; i++ {
		tr.Add(us(i * 70))
	}
	h := NewHistogram("h", 60*time.Microsecond, 9)
	h.AddTrace(tr)
	if h.Total() != 10 {
		t.Fatalf("total = %d", h.Total())
	}
	if len(h.Rows()) != 10 { // 9 buckets + overflow
		t.Fatalf("rows = %v", h.Rows())
	}
	if !strings.Contains(h.String(), "overflow") {
		t.Fatal("String() missing overflow row")
	}
}

func TestHistogramBadArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram("bad", 0, 5)
}

// Property: histogram total always equals samples added, and bucket sums
// plus overflow equal the total.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram("p", 60*time.Microsecond, 9)
		for _, r := range raw {
			h.Add(time.Duration(r) * time.Microsecond)
		}
		sum := h.Overflow()
		for _, c := range h.Buckets() {
			sum += c
		}
		return sum == len(raw) && h.Total() == len(raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize bounds — min <= median <= mean is not generally true,
// but min <= median <= max and min <= mean <= max always hold.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]time.Duration, len(raw))
		for i, r := range raw {
			samples[i] = time.Duration(r)
		}
		s := Summarize(samples)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Min <= s.P95 && s.P95 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "filer"}
	s.Add(25, 28000)
	s.Add(50, 27000)
	if want := []Point{{25, 28000}, {50, 27000}}; !slices.Equal(s.Points, want) {
		t.Fatalf("points = %v, want %v", s.Points, want)
	}
}

func TestSeriesCSV(t *testing.T) {
	a := &Series{Name: "a"}
	b := &Series{Name: "b"}
	a.Add(1, 10)
	b.Add(1, 20)
	got := CSV(a, b)
	want := "x,a,b\n1,10.0,20.0\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

func TestSeriesCSVMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := &Series{Name: "a"}
	a.Add(1, 1)
	b := &Series{Name: "b"}
	CSV(a, b)
}

func TestTable(t *testing.T) {
	tb := NewTable("Table 1", "", "Normal", "No lock")
	tb.AddRow("NetApp filer", "115 MBps", "140 MBps")
	tb.AddRow("Linux NFS server", "138 MBps", "147 MBps")
	if tb.Rows() != 2 || tb.Cell(0, 1) != "115 MBps" {
		t.Fatalf("table wrong: %v", tb)
	}
	out := tb.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "147 MBps") {
		t.Fatalf("render = %q", out)
	}
}

func TestRateHelpers(t *testing.T) {
	if got := MBps(1e6, time.Second); got != 1 {
		t.Fatalf("MBps = %v", got)
	}
	if got := KBps(1e6, time.Second); got != 1000 {
		t.Fatalf("KBps = %v", got)
	}
	if MBps(100, 0) != 0 || KBps(100, -time.Second) != 0 {
		t.Fatal("zero/negative elapsed should yield 0")
	}
}

func TestQuietGap(t *testing.T) {
	tr := NewTrace("g", 0)
	// Noisy segments around a quiet middle window.
	for i := 0; i < 3000; i++ {
		switch {
		case i >= 1200 && i < 1800:
			tr.Add(us(100)) // quiet: zero variance
		case i%2 == 0:
			tr.Add(us(80))
		default:
			tr.Add(us(220))
		}
	}
	start, end, ok := tr.QuietGap(100, 0.5)
	if !ok {
		t.Fatal("quiet gap not found")
	}
	if start < 1100 || start > 1300 || end < 1700 || end > 1900 {
		t.Fatalf("gap = [%d,%d), want ~[1200,1800)", start, end)
	}
}

func TestQuietGapNone(t *testing.T) {
	tr := NewTrace("g", 0)
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			tr.Add(us(80))
		} else {
			tr.Add(us(220))
		}
	}
	if _, _, ok := tr.QuietGap(100, 0.3); ok {
		t.Fatal("found a gap in uniformly noisy data")
	}
	if _, _, ok := tr.QuietGap(100, 0.5); ok {
		t.Fatal("found a gap in uniformly noisy data")
	}
	if _, _, ok := NewTrace("short", 0).QuietGap(100, 0.5); ok {
		t.Fatal("gap in empty trace")
	}
	// Zero-variance whole trace: no gap (base stddev 0).
	flat := NewTrace("flat", 0)
	for i := 0; i < 1000; i++ {
		flat.Add(us(100))
	}
	if _, _, ok := flat.QuietGap(100, 0.5); ok {
		t.Fatal("gap in zero-variance trace")
	}
}

func TestMeanStddev(t *testing.T) {
	if m, sd := MeanStddev(nil); m != 0 || sd != 0 {
		t.Fatalf("empty: %g, %g", m, sd)
	}
	if m, sd := MeanStddev([]float64{5}); m != 5 || sd != 0 {
		t.Fatalf("single: %g, %g", m, sd)
	}
	// {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, population stddev 2.
	m, sd := MeanStddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || sd != 2 {
		t.Fatalf("got %g, %g, want 5, 2", m, sd)
	}
}

func TestJainFairness(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 1},
		{[]float64{3, 3, 3, 3}, 1},
		{[]float64{0, 0}, 1},           // everyone equally starved
		{[]float64{10, 0, 0, 0}, 0.25}, // one-hot: 1/n
		{[]float64{4, 2}, 36.0 / 40.0}, // (4+2)^2 / (2 * (16+4))
	} {
		if got := JainFairness(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("JainFairness(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	// Bounds: always within [1/n, 1] for non-degenerate inputs.
	xs := []float64{1, 7, 2, 9, 4}
	f := JainFairness(xs)
	if f < 1.0/float64(len(xs)) || f > 1 {
		t.Fatalf("fairness %v out of [1/n, 1]", f)
	}
}
