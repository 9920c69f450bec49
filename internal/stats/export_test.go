package stats

import (
	"fmt"
	"time"
)

// Name returns the trace's name.
func (t *Trace) Name() string { return t.name }

// Buckets returns a copy of the per-bucket counts (overflow excluded).
func (h *Histogram) Buckets() []int {
	out := make([]int, len(h.counts))
	copy(out, h.counts)
	return out
}

// Overflow returns the count of samples beyond the last bucket.
func (h *Histogram) Overflow() int { return h.overflow }

// Total returns the total number of samples recorded.
func (h *Histogram) Total() int { return h.total }

// BucketWidth returns the bucket width.
func (h *Histogram) BucketWidth() time.Duration { return h.width }

// Rows renders "bucket_start_ms count" rows like the paper's bar charts.
func (h *Histogram) Rows() []string {
	rows := make([]string, 0, len(h.counts)+1)
	for i, c := range h.counts {
		start := time.Duration(i) * h.width
		rows = append(rows, fmt.Sprintf("%.2f %d", float64(start)/float64(time.Millisecond), c))
	}
	rows = append(rows, fmt.Sprintf(">%.2f %d", float64(len(h.counts))*float64(h.width)/float64(time.Millisecond), h.overflow))
	return rows
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Cell returns the cell at (row, col).
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }
