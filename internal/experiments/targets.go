package experiments

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// target is one claim of the paper and the cell that it reads: in
// experiment exp's table titled table ("" for an untitled one), the row
// keyed row (table.key), the column headed col.
type target struct {
	exp, table, row, col string
	kind
	lo, hi   float64 // bound: the cell lies in [lo, hi] (hi may be inf)
	highest  bool    // extreme: the highest value, not the lowest
	paper    string  // the paper's value or shape, as its text states it
	section  string  // the EXPERIMENTS.md section the claim comes from
	minScale float64 // the smallest -scale at which the claim is defined (0 = 1)
	expected bool    // beyond the paper: this repository's own expectation
}

// kind is one of a target's three kinds.
type kind int

const (
	bound   kind = iota // the cell lies in [lo, hi]
	extreme             // the row holds the highest (or lowest) value among its peers
	note                // the paper's text beside the cell, with no verdict
)

var inf = math.Inf(1)

// targets is every claim the figures check, sorted by experiment, table,
// row and column. It is the one place the paper's numbers are stated:
// the Run* doc comments and EXPERIMENTS.md's "Paper:" lines cite it.
var targets = []target{
	{exp: "ablation", table: "FCT-optimizing round (§3.5): flow sizes known vs unknown", row: "SRPT (sizes known)", col: "medium-mean",
		kind: extreme, section: "Ablations", expected: true, paper: "the SRPT first round mainly helps medium flows"},
	{exp: "ablation", table: "token window (§3.2): fraction of one BDP", row: "0.5 BDP", col: "medium-mean",
		kind: extreme, highest: true, section: "Ablations", expected: true, paper: "half a BDP of tokens underflows the pipe and inflates medium-flow slowdown"},
	{exp: "ablation", table: "token window (§3.2): fraction of one BDP", row: "2.0 BDP", col: "medium-mean",
		kind: note, section: "Ablations", expected: true, paper: "doubling the window buys little: 1 BDP is the sweet spot"},

	{exp: "fastpass", row: "dcpim", col: "short-mean",
		kind: extreme, section: "§5", paper: "dcPIM's short flows bypass matching: ≈ 1, below Fastpass's"},
	{exp: "fastpass", row: "fastpass", col: "short-mean",
		kind: bound, lo: 2, hi: inf, section: "§5", paper: "Fastpass's short flows wait for the arbiter: ≥ 2× optimal at the mean"},
	{exp: "fastpass", row: "fastpass", col: "short-p99",
		kind: bound, lo: 2, hi: inf, section: "§5", paper: "Fastpass's short flows wait for the arbiter: ≥ 2× optimal at the tail"},

	{exp: "faults", row: "3 dcpim", col: "completed",
		kind: bound, lo: 1, hi: inf, section: "Fault resilience", expected: true, paper: "dcPIM completes every flow at every fault level, the harshest included"},
	{exp: "faults", row: "3 dcpim", col: "mean",
		kind: note, section: "Fault resilience", expected: true, paper: "dcPIM's slowdown grows with fault intensity, gracefully"},

	// fig3a's ordering holds from -scale 0.3 (seed 1, 2-core probe; at
	// 0.2 HPCC reads 0.71 against dcPIM's 0.68).
	{exp: "fig3a", row: "dcpim", col: "max-load",
		kind: extreme, highest: true, section: "Figure 3(a)", minScale: 0.3, paper: "dcPIM sustains the highest load: 0.84 (IMC10, WebSearch), 0.7 (DataMining)"},
	{exp: "fig3a", row: "homa-aeolus", col: "max-load",
		kind: note, section: "Figure 3(a)", paper: "Homa Aeolus is the closest baseline; NDP and HPCC sustain less"},

	{exp: "fig3b", row: "DataMining dcpim", col: "mean",
		kind: extreme, section: "Figure 3(b,c,d,e)", paper: "dcPIM has the lowest mean slowdown, Homa Aeolus close behind"},
	{exp: "fig3b", row: "DataMining ndp", col: "mean",
		kind: extreme, highest: true, section: "Figure 3(b,c,d,e)", paper: "NDP has the highest mean slowdown"},
	{exp: "fig3b", row: "IMC10 dcpim", col: "mean",
		kind: extreme, section: "Figure 3(b,c,d,e)", paper: "dcPIM has the lowest mean slowdown, Homa Aeolus close behind"},
	{exp: "fig3b", row: "IMC10 ndp", col: "mean",
		kind: extreme, highest: true, section: "Figure 3(b,c,d,e)", paper: "NDP has the highest mean slowdown"},
	{exp: "fig3b", row: "WebSearch dcpim", col: "mean",
		kind: extreme, section: "Figure 3(b,c,d,e)", paper: "dcPIM has the lowest mean slowdown, Homa Aeolus close behind"},
	{exp: "fig3b", row: "WebSearch ndp", col: "mean",
		kind: extreme, highest: true, section: "Figure 3(b,c,d,e)", paper: "NDP has the highest mean slowdown"},

	{exp: "fig3cde", table: "workload DataMining", row: "dcpim mean", col: "short(≤BDP)",
		kind: bound, lo: 1.03, hi: 1.04, section: "Figure 3(b,c,d,e)", paper: "dcPIM's short-flow mean is 1.03–1.04 on the three workloads"},
	{exp: "fig3cde", table: "workload DataMining", row: "dcpim mean", col: "short(≤BDP)",
		kind: extreme, section: "Figure 3(b,c,d,e)", paper: "the lowest short-flow mean: Homa Aeolus 2.5–2.7, NDP 2.5–4.1, HPCC 1.1–1.9"},
	{exp: "fig3cde", table: "workload DataMining", row: "dcpim p99", col: "short(≤BDP)",
		kind: bound, lo: 1.09, hi: 1.16, section: "Figure 3(b,c,d,e)", paper: "dcPIM's short-flow p99 is 1.09–1.16 on the three workloads"},
	{exp: "fig3cde", table: "workload DataMining", row: "dcpim p99", col: "short(≤BDP)",
		kind: extreme, section: "Figure 3(b,c,d,e)", paper: "the lowest short-flow p99: Homa Aeolus 3–6.1, NDP 12.5–22.3, HPCC 2–5.8"},
	{exp: "fig3cde", table: "workload IMC10", row: "dcpim mean", col: "1-4BDP",
		kind: note, section: "Figure 3(b,c,d,e)", paper: "medium flows pay the matching latency"},
	{exp: "fig3cde", table: "workload IMC10", row: "dcpim mean", col: "short(≤BDP)",
		kind: bound, lo: 1.03, hi: 1.04, section: "Figure 3(b,c,d,e)", paper: "dcPIM's short-flow mean is 1.03–1.04 on the three workloads"},
	{exp: "fig3cde", table: "workload IMC10", row: "dcpim mean", col: "short(≤BDP)",
		kind: extreme, section: "Figure 3(b,c,d,e)", paper: "the lowest short-flow mean: Homa Aeolus 2.5–2.7, NDP 2.5–4.1, HPCC 1.1–1.9"},
	{exp: "fig3cde", table: "workload IMC10", row: "dcpim p99", col: "short(≤BDP)",
		kind: bound, lo: 1.09, hi: 1.16, section: "Figure 3(b,c,d,e)", paper: "dcPIM's short-flow p99 is 1.09–1.16 on the three workloads"},
	{exp: "fig3cde", table: "workload IMC10", row: "dcpim p99", col: "short(≤BDP)",
		kind: extreme, section: "Figure 3(b,c,d,e)", paper: "the lowest short-flow p99: Homa Aeolus 3–6.1, NDP 12.5–22.3, HPCC 2–5.8"},
	{exp: "fig3cde", table: "workload WebSearch", row: "dcpim mean", col: "short(≤BDP)",
		kind: bound, lo: 1.03, hi: 1.04, section: "Figure 3(b,c,d,e)", paper: "dcPIM's short-flow mean is 1.03–1.04 on the three workloads"},
	{exp: "fig3cde", table: "workload WebSearch", row: "dcpim mean", col: "short(≤BDP)",
		kind: extreme, section: "Figure 3(b,c,d,e)", paper: "the lowest short-flow mean: Homa Aeolus 2.5–2.7, NDP 2.5–4.1, HPCC 1.1–1.9"},
	{exp: "fig3cde", table: "workload WebSearch", row: "dcpim p99", col: "short(≤BDP)",
		kind: bound, lo: 1.09, hi: 1.16, section: "Figure 3(b,c,d,e)", paper: "dcPIM's short-flow p99 is 1.09–1.16 on the three workloads"},
	{exp: "fig3cde", table: "workload WebSearch", row: "dcpim p99", col: "short(≤BDP)",
		kind: extreme, section: "Figure 3(b,c,d,e)", paper: "the lowest short-flow p99: Homa Aeolus 3–6.1, NDP 12.5–22.3, HPCC 2–5.8"},

	// fig4a's targets read the first bin, the one every horizon prints.
	{exp: "fig4a", row: "dcpim", col: "50us",
		kind: extreme, highest: true, section: "Figure 4(a)", paper: "dcPIM converges within tens of µs and holds high utilization through the incasts"},
	{exp: "fig4a", row: "homa-aeolus", col: "50us",
		kind: note, section: "Figure 4(a)", paper: "Homa Aeolus and NDP take 300–600 µs to converge"},
	{exp: "fig4a", row: "hpcc", col: "50us",
		kind: note, section: "Figure 4(a)", paper: "HPCC stumbles on PFC"},

	{exp: "fig4b", row: "hpcc", col: "mean-slowdown",
		kind: extreme, section: "Figure 4(b)", paper: "dcPIM's worst case: HPCC has a better mean than dcPIM; NDP and Homa Aeolus stay worse"},
	{exp: "fig4b", row: "hpcc", col: "p99-slowdown",
		kind: extreme, section: "Figure 4(b)", paper: "HPCC's tail is slightly better than dcPIM's; NDP and Homa Aeolus stay worse"},

	{exp: "fig4c", row: "dcpim", col: "util(steady)",
		kind: extreme, highest: true, section: "Figure 4(c)", paper: "dcPIM sustains ≈ 93.5%; HPCC hits PFC, NDP retransmission storms, Homa Aeolus converges after > 1000 µs"},
	{exp: "fig4c", table: "Theorem 1 on the dense demand graph (δ̄ = n, r = 4)", row: "floor (α ≈ 1.2)", col: "matched",
		kind: note, section: "Figure 4(c)", paper: "the Theorem 1 floor at n = 144 (M* ≈ 120) is 32.9%"},

	{exp: "fig5ab", table: "workload DataMining", row: "dcpim mean", col: "short(≤BDP)",
		kind: extreme, section: "Figure 5(a,b)", paper: "the trend of Figure 3: token clocking absorbs core congestion"},
	{exp: "fig5ab", table: "workload DataMining", row: "dcpim p99", col: "short(≤BDP)",
		kind: extreme, section: "Figure 5(a,b)", paper: "the trend of Figure 3: token clocking absorbs core congestion"},
	{exp: "fig5ab", table: "workload IMC10", row: "dcpim mean", col: "short(≤BDP)",
		kind: extreme, section: "Figure 5(a,b)", paper: "the trend of Figure 3: token clocking absorbs core congestion"},
	{exp: "fig5ab", table: "workload IMC10", row: "dcpim p99", col: "short(≤BDP)",
		kind: extreme, section: "Figure 5(a,b)", paper: "the trend of Figure 3: token clocking absorbs core congestion"},
	{exp: "fig5ab", table: "workload WebSearch", row: "dcpim mean", col: "short(≤BDP)",
		kind: extreme, section: "Figure 5(a,b)", paper: "the trend of Figure 3: token clocking absorbs core congestion"},
	{exp: "fig5ab", table: "workload WebSearch", row: "dcpim p99", col: "short(≤BDP)",
		kind: extreme, section: "Figure 5(a,b)", paper: "the trend of Figure 3: token clocking absorbs core congestion"},

	// Below -scale 1 fig5cd runs IMC10 alone.
	{exp: "fig5cd", table: "workload IMC10", row: "dcpim mean", col: "short(≤BDP)",
		kind: extreme, section: "Figure 5(c,d)", paper: "the trend of Figure 3: pipelining hides the longer RTTs"},
	{exp: "fig5cd", table: "workload IMC10", row: "dcpim p99", col: "short(≤BDP)",
		kind: extreme, section: "Figure 5(c,d)", paper: "the trend of Figure 3: pipelining hides the longer RTTs"},

	{exp: "fig6", table: "channels k (r=4, β=1.3)", row: "2", col: "goodput/offered",
		kind: note, section: "Figure 6", paper: "2–4 channels are the sweet spot"},
	{exp: "fig6", table: "rounds r (k=4, β=1.3)", row: "1", col: "goodput/offered",
		kind: extreme, section: "Figure 6", paper: "1→2 rounds buys the most, 18–24% more sustainable load; further rounds have diminishing returns"},
	{exp: "fig6", table: "slack β (r=4, k=4)", row: "1.10", col: "goodput/offered",
		kind: note, section: "Figure 6", paper: "β has no effect beyond 1.1"},

	{exp: "fig7", table: "baseline slowdown over dcPIM's", row: "cubic", col: "long-mean",
		kind: note, section: "Figure 7", paper: "1.71–2.61× dcPIM's long-flow throughput (this column is a slowdown ratio)"},
	{exp: "fig7", table: "baseline slowdown over dcPIM's", row: "cubic", col: "short-mean",
		kind: bound, lo: 21, hi: 43, section: "Figure 7", paper: "dcPIM's short flows: 21–43× better mean slowdown than DCTCP and TCP Cubic"},
	{exp: "fig7", table: "baseline slowdown over dcPIM's", row: "cubic", col: "short-p99",
		kind: bound, lo: 34, hi: 76, section: "Figure 7", paper: "dcPIM's short flows: 34–76× better p99 slowdown than DCTCP and TCP Cubic"},
	{exp: "fig7", table: "baseline slowdown over dcPIM's", row: "dctcp", col: "long-mean",
		kind: note, section: "Figure 7", paper: "1.71–2.61× dcPIM's long-flow throughput (this column is a slowdown ratio)"},
	{exp: "fig7", table: "baseline slowdown over dcPIM's", row: "dctcp", col: "short-mean",
		kind: bound, lo: 21, hi: 43, section: "Figure 7", paper: "dcPIM's short flows: 21–43× better mean slowdown than DCTCP and TCP Cubic"},
	{exp: "fig7", table: "baseline slowdown over dcPIM's", row: "dctcp", col: "short-p99",
		kind: bound, lo: 34, hi: 76, section: "Figure 7", paper: "dcPIM's short flows: 34–76× better p99 slowdown than DCTCP and TCP Cubic"},

	{exp: "theorem1", row: "5.00 4", col: "measured M/M*",
		kind: bound, lo: 0.975, hi: inf, section: "Theorem 1", paper: "δ̄ = 5, r = 4: ≥ 97.5% of M*, so > 78% of hosts when PIM matches 80%"},
}

// writeTargets ends experiment exp's report with its targets, read from
// the tables it printed.
func writeTargets(w io.Writer, o Options, exp string, tables ...*table) error {
	return reportTargets(w, o, exp, targets, tables)
}

// reportTargets prints a line per target of exp in tgs: its outcome, the
// cell it reads with the measured value, what it asks, and the paper's
// text. The outcome is held or not held; not defined when the run is
// smaller than the paper's (-hosts) or shorter than the target's scale;
// note for a note. A target that names no cell of tables is an error.
func reportTargets(w io.Writer, o Options, exp string, tgs []target, tables []*table) error {
	var sections []string
	var b strings.Builder
	for _, tg := range tgs {
		if tg.exp != exp {
			continue
		}
		t, i, j := find(tables, tg.table, tg.row, tg.col)
		if t == nil {
			return fmt.Errorf("target %s [%s] %s, %s names no cell", tg.exp, tg.table, tg.row, tg.col)
		}
		if !slices.Contains(sections, tg.section) {
			sections = append(sections, tg.section)
		}
		outcome, want := "note", ""
		if tg.kind != note {
			outcome, want = "not held", ": want "+tg.want()
			if scale := cmp.Or(tg.minScale, 1); o.Hosts != 0 || o.Scale > 0 && o.Scale < scale {
				outcome, want = "not defined", fmt.Sprintf("%s (defined from -scale %g at the paper's size)", want, scale)
			} else if tg.holds(t, i, j) {
				outcome = "held"
			}
		}
		where, source := tg.row+", "+tg.col, "paper"
		if tg.table != "" {
			where = "[" + tg.table + "] " + where
		}
		if tg.expected {
			source = "expected"
		}
		fmt.Fprintf(&b, "  %-11s  %s = %s%s; %s: %s\n", outcome, where, format(t.rows[i][j]), want, source, tg.paper)
	}
	fmt.Fprintf(w, "\ntargets (EXPERIMENTS.md: %s):\n%s", strings.Join(sections, "; "), b.String())
	return nil
}

// want says in words what the target asks.
func (tg target) want() string {
	switch {
	case tg.kind == extreme && tg.highest:
		return "highest"
	case tg.kind == extreme:
		return "lowest"
	case tg.hi == inf:
		return fmt.Sprintf("≥ %g", tg.lo)
	}
	return fmt.Sprintf("%g–%g", tg.lo, tg.hi)
}

// holds reports whether cell (i, j) of t passes the target. A cell that is
// not a measurement (NaN or a floor) passes none. An extreme ranks the
// row among its peers: the rows whose keys differ only in the "protocol"
// column (the first when no key column is one), so that it compares the
// protocols of one workload, metric or fault level. Among them a floor
// counts at its bound and NaN never wins.
func (tg target) holds(t *table, i, j int) bool {
	v, ok := number(t.rows[i][j])
	if tg.kind == bound {
		return ok && tg.lo <= v && v <= tg.hi
	}
	ranked := max(0, slices.Index(t.header[:t.keys], "protocol"))
	for _, r := range t.rows {
		p, _ := number(r[j])
		if t.key(r, ranked) == t.key(t.rows[i], ranked) && (tg.highest && p > v || !tg.highest && p < v) {
			return false
		}
	}
	return ok
}
