// Package stats provides the small statistics primitives shared by the
// simulator and the benchmark harness: time-bucketed series (for the
// power trace of Fig. 4 and the per-channel write breakdown of Fig. 6),
// aggregate helpers, and a fixed-width text table.
package stats

import (
	"fmt"
	"strings"

	"repro/internal/clock"
)

// Series accumulates a value over fixed-width time windows. It backs the
// paper's time-resolved plots (power and active-core fraction, per-channel
// write throughput). Buckets are stored densely from window 0, so a
// sample at time t grows the series to t/window+1 buckets; both producers
// sample a fresh machine over one bounded run.
type Series struct {
	window clock.Picos
	vals   []float64
}

// NewSeries creates a series with the given bucket width.
func NewSeries(window clock.Picos) *Series {
	if window <= 0 {
		panic("stats: non-positive series window")
	}
	return &Series{window: window}
}

// Add accumulates v into the bucket containing time t.
func (s *Series) Add(t clock.Picos, v float64) {
	if t < 0 {
		panic("stats: negative time")
	}
	i := int(t / s.window)
	for len(s.vals) <= i {
		s.vals = append(s.vals, 0)
	}
	s.vals[i] += v
}

// Bucket returns bucket i, or 0 when it was never touched.
func (s *Series) Bucket(i int) float64 {
	if i < 0 || i >= len(s.vals) {
		return 0
	}
	return s.vals[i]
}

// Len reports the number of buckets: one past the highest window touched.
func (s *Series) Len() int { return len(s.vals) }

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Table is a minimal fixed-width text table used by the benchmark harness
// to print paper-style rows.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Rowf appends a row of formatted cells.
func (t *Table) Rowf(format string, args ...interface{}) {
	t.rows = append(t.rows, strings.Split(fmt.Sprintf(format, args...), "\t"))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w, c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
