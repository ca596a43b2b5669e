package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dcpim/internal/matching"
)

// matcherQuick is the canonical smoke config: every matcher in the table,
// small sparse+dense grid, two budgets for budgeted matchers.
func matcherQuick(workers int) matcherSweepConfig {
	return matcherSweepConfig{
		Matchers:    matching.Names(),
		SparsePorts: []int{64, 256},
		DensePorts:  []int{32},
		Trials:      2,
		Seed:        1,
		Workers:     workers,
	}
}

// The sweep's CSV — the bytes the printed sweep digest hashes — must be
// byte-identical at -parallel 1, 4 and 8, and must match
// testdata/golden/matchers.csv. The sweep is a pure function of its
// config, so any change there means the matcher algorithms, seed
// derivation, or CSV schema changed.
func TestMatcherSweepGoldenDigest(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 4, 8} {
		rows, err := matcherSweep(matcherQuick(workers))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := writeMatcherCSV(&buf, rows); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			ref = buf.Bytes()
			golden(t, "golden/matchers.csv", ref)
			continue
		}
		sameSummary(t, fmt.Sprintf("workers=%d CSV vs serial", workers), ref, buf.Bytes())
	}
}

// A cell's row does not depend on which other matchers or budgets the
// sweep runs: its graph seed derives from its grid coordinates and its
// match seed from the matcher's name and budget, so a sweep without
// budget-pim (whose three configurations come first) repeats every other
// matcher's rows.
func TestMatcherRowsIndependentOfTheSet(t *testing.T) {
	all, err := matcherSweep(matcherQuick(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := matcherQuick(1)
	cfg.Matchers = slices.DeleteFunc(slices.Clone(cfg.Matchers), func(m string) bool { return m == "budget-pim" })
	some, err := matcherSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kept := slices.DeleteFunc(all, func(r matcherRow) bool { return r.Matcher == "budget-pim" })
	if len(kept) == len(all) || !slices.Equal(kept, some) {
		t.Errorf("dropping budget-pim changed the other matchers' rows:\n%v\nvs\n%v", some, kept)
	}
}

// RunMatchers' full printed report must be byte-identical at -parallel
// 1, 4 and 8 (the experiment prints no wall-clock timing).
func TestMatchersOutputParallelInvariant(t *testing.T) {
	var ref bytes.Buffer
	o := quick()
	o.Workers = 1
	if err := RunMatchers(o, &ref); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		var got bytes.Buffer
		o.Workers = workers
		if err := RunMatchers(o, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.Bytes(), got.Bytes()) {
			t.Errorf("-parallel %d output differs from serial:\n%s\nvs\n%s", workers, got.String(), ref.String())
		}
	}
}

// Every row the sweep emits must satisfy the schema invariants the docs
// promise: valid matchers, budget rows only for budgeted matchers,
// per-round bits within budget, size_vs_mstar in [0, ~1].
func TestMatcherSweepRowInvariants(t *testing.T) {
	rows, err := matcherSweep(matcherQuick(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty sweep")
	}
	for _, r := range rows {
		d, ok := matching.Lookup(r.Matcher)
		if !ok {
			t.Fatalf("row names unknown matcher %q", r.Matcher)
		}
		if r.BudgetFrac > 0 && !d.Budgeted {
			t.Fatalf("non-budgeted %s has budget row", r.Matcher)
		}
		if r.BudgetBits > 0 && r.MaxRoundBits > r.BudgetBits {
			t.Fatalf("%s on %s n=%d: round spent %d bits > budget %d",
				r.Matcher, r.Graph, r.Ports, r.MaxRoundBits, r.BudgetBits)
		}
		if r.SizeVsMStar < 0 || r.SizeVsMStar > 1.2 {
			t.Fatalf("%s: size_vs_mstar %v out of range", r.Matcher, r.SizeVsMStar)
		}
		if r.MStar <= 0 {
			t.Fatalf("%s on %s n=%d: M* = %d", r.Matcher, r.Graph, r.Ports, r.MStar)
		}
	}
}

// Unknown matcher names fail loudly, listing the table; so does a
// -matchers list that names no matcher at all.
func TestMatcherSweepUnknownMatcher(t *testing.T) {
	cfg := matcherQuick(1)
	cfg.Matchers = []string{"pim", "bogus"}
	_, err := matcherSweep(cfg)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("want unknown-matcher error, got %v", err)
	}

	o := quick()
	o.Matchers = " , "
	var out bytes.Buffer
	err = RunMatchers(o, &out)
	if err == nil || !strings.Contains(err.Error(), "budget-pim") {
		t.Fatalf("want an error listing the matchers for an empty list, got %v", err)
	}
	if out.Len() != 0 {
		t.Fatalf("a rejected sweep printed a report:\n%s", out.String())
	}
}

// The CSV writer emits one header plus one line per row with the
// documented column count.
func TestWriteMatcherCSVShape(t *testing.T) {
	rows, err := matcherSweep(matcherQuick(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeMatcherCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("CSV has %d lines for %d rows", len(lines), len(rows))
	}
	wantCols := len(strings.Split(lines[0], ","))
	for i, line := range lines {
		if got := len(strings.Split(line, ",")); got != wantCols {
			t.Fatalf("line %d has %d columns, header has %d", i, got, wantCols)
		}
	}
}
