package experiments

import (
	"fmt"
	"io"
	"strings"

	"dcpim/internal/sim"
)

// table accumulates rows and renders an aligned text table.
type table struct {
	header []string
	rows   [][]string
}

func newTable(cols ...string) *table { return &table{header: cols} }

func (t *table) add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case int, int64:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

func (t *table) write(w io.Writer) {
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
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.rows {
		line(r)
	}
}

// steadyUtilization returns mean fabric utilization (fraction of aggregate
// host capacity) over [from, to).
func steadyUtilization(res RunResult, from, to sim.Duration) float64 {
	series := res.Col.UtilizationSeries(res.Hosts, res.HostRate)
	bin := 10 * sim.Microsecond
	lo, hi := int(from/bin), int(to/bin)
	if hi > len(series) {
		hi = len(series)
	}
	if lo >= hi {
		return 0
	}
	var sum float64
	for _, u := range series[lo:hi] {
		sum += u
	}
	return sum / float64(hi-lo)
}
