package experiments

import (
	"bytes"
	"strings"
	"testing"

	"dcpim/internal/matching"
)

// goldenMatcherDigest pins the matchers sweep at the canonical smoke
// configuration (quick() options, Workers forced to 1/4/8 below). The
// sweep is a pure function of its config, so any change here means the
// matcher algorithms, seed derivation, or CSV schema changed — regenerate
// deliberately with:
//
//	go test ./internal/experiments -run TestMatcherSweepGoldenDigest -v
const goldenMatcherDigest uint64 = 0x0f539d1274ea359f

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

// The sweep digest must be byte-identical at -parallel 1, 4 and 8, and
// must match the pinned golden value.
func TestMatcherSweepGoldenDigest(t *testing.T) {
	var ref uint64
	for _, workers := range []int{1, 4, 8} {
		rows, err := matcherSweep(matcherQuick(workers))
		if err != nil {
			t.Fatal(err)
		}
		digest, err := matcherDigest(rows)
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			ref = digest
			t.Logf("matchers digest (serial): %#016x over %d rows", digest, len(rows))
			if digest != goldenMatcherDigest {
				t.Errorf("sweep digest %#016x != golden %#016x — matcher behavior or schema changed",
					digest, goldenMatcherDigest)
			}
			continue
		}
		if digest != ref {
			t.Errorf("workers=%d digest %#016x != serial %#016x", workers, digest, ref)
		}
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
