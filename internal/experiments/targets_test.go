package experiments

import (
	"bytes"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"dcpim/internal/stats"
)

// TestTargetsTable checks the table itself: sorted by experiment, table,
// row and column; every experiment but scale and matchers has a target;
// each names a known experiment and an EXPERIMENTS.md section, and asks
// something well formed.
func TestTargetsTable(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	sortKey := func(tg target) []string { return []string{tg.exp, tg.table, tg.row, tg.col} }
	has := map[string]bool{}
	for i, tg := range targets {
		if _, ok := ByID(tg.exp); !ok {
			t.Errorf("target %d names unknown experiment %q", i, tg.exp)
		}
		has[tg.exp] = true
		if i > 0 && strings.Join(sortKey(targets[i-1]), "\x00") > strings.Join(sortKey(tg), "\x00") {
			t.Errorf("targets out of order at %d: %q after %q", i, sortKey(tg), sortKey(targets[i-1]))
		}
		if !strings.Contains(string(doc), "\n## "+tg.section+" ") {
			t.Errorf("target %q: section %q is not an EXPERIMENTS.md heading", sortKey(tg), tg.section)
		}
		if tg.paper == "" || tg.kind > note || tg.kind == bound && !(tg.lo <= tg.hi) || tg.minScale < 0 || tg.minScale > 1 {
			t.Errorf("target %q is malformed: %+v", sortKey(tg), tg)
		}
	}
	for _, e := range All() {
		if e.ID != "scale" && e.ID != "matchers" && !has[e.ID] {
			t.Errorf("experiment %s has no target", e.ID)
		}
	}
}

// outcomes runs reportTargets over tgs and returns the outcome word of
// each target line, in order.
func outcomes(t *testing.T, o Options, tgs []target, tables ...*table) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reportTargets(&buf, o, "x", tgs, tables); err != nil {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`(?m)^  (held|not held|not defined|note) `)
	var out []string
	for _, m := range line.FindAllStringSubmatch(buf.String(), -1) {
		out = append(out, m[1])
	}
	if len(out) != len(tgs) {
		t.Fatalf("%d target lines for %d targets:\n%s", len(out), len(tgs), buf.String())
	}
	return out
}

// TestTargetOutcomes evaluates targets on synthetic tables: each case
// pairs a target that holds with the same target mutated (extreme
// flipped, bound moved past the cell, a -hosts run or a short scale) so
// that an evaluator ignoring the mutation fails.
func TestTargetOutcomes(t *testing.T) {
	load := newTable("protocol", "max-load")
	load.add("dcpim", 0.84)
	load.add("homa", 0.80)
	load.add("ndp", below(0.40))
	load.add("hpcc", math.NaN())
	// Bucket-shaped: an extreme ranks the protocols of one metric.
	buckets := newTable("protocol", "metric", "short")
	buckets.title = "workload W"
	buckets.keys = 2
	buckets.add("a", "mean", 1.0)
	buckets.add("a", "p99", 5.0)
	buckets.add("b", "mean", 2.0)
	buckets.add("b", "p99", 3.0)
	done := newTable("protocol", "completed")
	done.add("dcpim", fraction{9, 10})

	at := func(row, col string, tg target) target {
		tg.exp, tg.row, tg.col, tg.paper, tg.section = "x", row, col, "claim", "S"
		return tg
	}
	highest, lowest := target{kind: extreme, highest: true}, target{kind: extreme}
	within := func(lo, hi float64) target { return target{kind: bound, lo: lo, hi: hi} }
	in := func(tg target, title string) target { tg.table = title; return tg }
	paper := Options{Scale: 1}
	cases := []struct {
		name string
		o    Options
		tg   target
		want string
	}{
		{"highest", paper, at("dcpim", "max-load", highest), "held"},
		{"highest flipped", paper, at("dcpim", "max-load", lowest), "not held"},
		{"a floor ranks at its bound", paper, at("homa", "max-load", lowest), "not held"},
		{"lowest of its metric", paper, in(at("b p99", "short", lowest), "workload W"), "held"},
		{"lowest of its metric flipped", paper, in(at("b p99", "short", highest), "workload W"), "not held"},
		{"bound", paper, at("dcpim", "max-load", within(0.84, 0.9)), "held"},
		{"bound moved above the cell", paper, at("dcpim", "max-load", within(0.85, 0.9)), "not held"},
		{"bound moved below the cell", paper, at("dcpim", "max-load", within(0.5, 0.83)), "not held"},
		{"one-sided bound moved past the cell", paper, at("dcpim", "max-load", within(0.841, inf)), "not held"},
		{"fraction", paper, at("dcpim", "completed", within(0.9, inf)), "held"},
		{"fraction short of the bound", paper, at("dcpim", "completed", within(1, inf)), "not held"},
		{"a floor holds no bound", paper, at("ndp", "max-load", within(0, 1)), "not held"},
		{"NaN holds no bound", paper, at("hpcc", "max-load", within(0, 1)), "not held"},
		{"NaN is no extreme", paper, at("hpcc", "max-load", highest), "not held"},
		{"unset scale is 1", Options{}, at("dcpim", "max-load", highest), "held"},
		{"-hosts", Options{Scale: 1, Hosts: 8}, at("dcpim", "max-load", highest), "not defined"},
		{"below the default scale", Options{Scale: 0.5}, at("dcpim", "max-load", highest), "not defined"},
		{"at its own scale", Options{Scale: 0.5}, func() target { tg := at("dcpim", "max-load", highest); tg.minScale = 0.5; return tg }(), "held"},
		{"note", Options{Hosts: 8}, at("dcpim", "max-load", target{kind: note}), "note"},
	}
	for _, c := range cases {
		if got := outcomes(t, c.o, []target{c.tg}, load, buckets, done)[0]; got != c.want {
			t.Errorf("%s: outcome %q, want %q", c.name, got, c.want)
		}
	}
}

// TestTargetNamingNoCellFails: a target whose table, row or column is not
// printed is an error that names it, so TestAllExperimentsRunQuick
// resolves every target of the table.
func TestTargetNamingNoCellFails(t *testing.T) {
	tbl := newTable("protocol", "mean")
	tbl.add("dcpim", 1.0)
	for _, tg := range []target{
		{exp: "x", row: "dcpim", col: "p99", kind: note},
		{exp: "x", row: "ndp", col: "mean", kind: note},
		{exp: "x", table: "workload W", row: "dcpim", col: "mean", kind: note},
	} {
		err := reportTargets(&bytes.Buffer{}, Options{}, "x", []target{tg}, []*table{tbl})
		if err == nil || !strings.Contains(err.Error(), tg.row) || !strings.Contains(err.Error(), tg.col) {
			t.Errorf("target %+v: error %v, want one naming it", tg, err)
		}
	}
}

// TestCellFormat: NaN renders as "-", a floor as "< 0.40", both in a
// table and on a target line.
func TestCellFormat(t *testing.T) {
	tbl := newTable("protocol", "max-load", "util")
	tbl.add("dcpim", below(0.40), math.NaN())
	var buf bytes.Buffer
	tbl.write(&buf)
	if want := "dcpim     < 0.40    -\n"; !strings.HasSuffix(buf.String(), want) {
		t.Errorf("table:\n%s\nwant its row %q", buf.String(), want)
	}
	buf.Reset()
	tgs := []target{{exp: "x", row: "dcpim", col: "max-load", kind: extreme, highest: true}, {exp: "x", row: "dcpim", col: "util", kind: note}}
	if err := reportTargets(&buf, Options{}, "x", tgs, []*table{tbl}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dcpim, max-load = < 0.40: want highest", "dcpim, util = -;"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("target lines:\n%s\nwant %q", buf.String(), want)
		}
	}
}

// TestEmptySizeClassUnmeasured: a size class that finished no flow
// prints "-" in every figure that reads sizeClasses (ablation, fig6,
// fastpass, fig7), not a measured 0.00.
func TestEmptySizeClassUnmeasured(t *testing.T) {
	const bdp = 1000
	res := RunResult{Records: []stats.FlowRecord{
		{ID: 1, Size: bdp, Finish: 2000, Optimal: 1000},
		{ID: 2, Size: 20 * bdp, Finish: 9000, Optimal: 3000},
	}}
	c := sizeClasses(res, bdp)
	tbl := newTable("run", "short-mean", "medium-mean", "medium-p99", "long-p99", "all-mean")
	tbl.add("one", c.short.mean, c.medium.mean, c.medium.p99, c.long.p99, c.all.mean)
	var buf bytes.Buffer
	tbl.write(&buf)
	if want := "one  2.00        -            -           3.00      2.50\n"; !strings.HasSuffix(buf.String(), want) {
		t.Errorf("table:\n%s\nwant its row %q", buf.String(), want)
	}
}

// TestFig3aSearchFloor: a protocol whose search never sustains prints
// the floor as a bound and no utilization (dcPIM and HPCC at 16 hosts,
// -scale 0.05, seed 1).
func TestFig3aSearchFloor(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig3a(Options{Seed: 1, Scale: 0.05, Hosts: 16}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, proto := range []string{DCPIM, HPCC} {
		if !regexp.MustCompile(`(?m)^` + proto + `\s+< 0\.40\s+-\s+5$`).MatchString(buf.String()) {
			t.Errorf("no %s row with max-load \"< 0.40\" and utilization \"-\":\n%s", proto, buf.String())
		}
	}
}
