package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"dcpim/internal/sim"
)

// table accumulates rows of typed cells and renders them as an aligned
// text table; targets read the cells, not their text.
type table struct {
	title  string // printed as "-- title --" after a blank line, when set
	header []string
	keys   int // how many leading columns name a row (see key)
	rows   [][]any
}

func newTable(cols ...string) *table { return &table{header: cols, keys: 1} }

func titled(title string, cols ...string) *table {
	t := newTable(cols...)
	t.title = title
	return t
}

func (t *table) add(cells ...any) { t.rows = append(t.rows, cells) }

// below is a cell that bounds its value from above: a load search that
// never sustained prints its floor as "< 0.40".
type below float64

func (b below) String() string           { return fmt.Sprintf("< %.2f", float64(b)) }
func (b below) measure() (float64, bool) { return float64(b), false }

// fraction is a count over a total, such as completed over started flows.
type fraction struct{ n, d int64 }

func (f fraction) String() string           { return fmt.Sprintf("%d/%d", f.n, f.d) }
func (f fraction) measure() (float64, bool) { return float64(f.n) / float64(f.d), f.d > 0 }

// format renders a cell: a float to two decimals, NaN (nothing was
// measured) as "-", anything else as fmt prints it.
func format(c any) string {
	switch v := c.(type) {
	case float64:
		if math.IsNaN(v) {
			return "-"
		}
		return fmt.Sprintf("%.2f", v)
	}
	return fmt.Sprint(c)
}

// number is a cell's value and whether it was measured: a floor gives its
// bound and false, a cell that is no number NaN.
func number(c any) (float64, bool) {
	switch v := c.(type) {
	case float64:
		return v, !math.IsNaN(v)
	case int:
		return float64(v), true
	case interface{ measure() (float64, bool) }:
		return v.measure()
	}
	return math.NaN(), false
}

// key names row r by its leading t.keys cells, space-separated, leaving
// out column skip (-1 for none).
func (t *table) key(r []any, skip int) string {
	var parts []string
	for c := range t.keys {
		if c != skip {
			parts = append(parts, format(r[c]))
		}
	}
	return strings.Join(parts, " ")
}

// find returns the table of tables titled title, and the row and column
// of its cell at (row key, col); a nil table when there is no such cell.
func find(tables []*table, title, row, col string) (*table, int, int) {
	for _, t := range tables {
		j := slices.Index(t.header, col)
		for i, r := range t.rows {
			if t.title == title && j >= 0 && t.key(r, -1) == row {
				return t, i, j
			}
		}
	}
	return nil, 0, 0
}

func (t *table) write(w io.Writer) {
	if t.title != "" {
		fmt.Fprintf(w, "\n-- %s --\n", t.title)
	}
	text := [][]string{t.header, make([]string, len(t.header))} // the second row: separators
	for _, r := range t.rows {
		cells := make([]string, len(r))
		for j, c := range r {
			cells[j] = format(c)
		}
		text = append(text, cells)
	}
	widths := make([]int, len(t.header))
	for _, r := range text {
		for j, c := range r {
			widths[j] = max(widths[j], len(c))
		}
	}
	for j, n := range widths {
		text[1][j] = strings.Repeat("-", n)
	}
	for _, r := range text {
		parts := make([]string, len(r))
		for j, c := range r {
			parts[j] = fmt.Sprintf("%-*s", widths[j], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
}

// steadyUtilization returns mean fabric utilization (fraction of aggregate
// host capacity) over [from, to), or NaN, which a table prints as "-",
// when that window is not inside the run. It averages the run's own
// sampling bins, whatever width the run chose.
func steadyUtilization(res RunResult, from, to sim.Duration) float64 {
	series := res.Col.UtilizationSeries(res.Hosts, res.HostRate)
	bin := res.Col.Interval()
	lo, hi := int(from/bin), min(int(to/bin), len(series))
	if sim.Time(to) > res.End || lo >= hi {
		return math.NaN()
	}
	var sum float64
	for _, u := range series[lo:hi] {
		sum += u
	}
	return sum / float64(hi-lo)
}
