package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dcpim/internal/matching"
)

// The matchers experiment compares every matcher in the table head-to-head
// on the same demand graphs: convergence rounds, control bytes per
// matched byte, and matching size relative to M* (converged PIM), over
// ports up to 10^5 × sparse/dense graphs × communication budgets: the
// paper's theory core turned into a research instrument (DESIGN.md §15).

// matcherDegree is the sparse graphs' average sender degree δ̄.
const matcherDegree float64 = 4

// matcherBudgetFracs are the per-round budgets, as fractions of an
// unconstrained round, that budgeted matchers are swept over.
var matcherBudgetFracs = []float64{0.25, 0.05}

// matcherSweepConfig enumerates one sweep. Every cell — one (graph kind,
// ports, matcher, budget, trial) tuple — is a pure function of its
// indices and Seed, so the sweep is byte-identical at any worker count.
type matcherSweepConfig struct {
	Matchers    []string // table names, run in the given order
	SparsePorts []int    // sparse-graph sizes (n per side)
	DensePorts  []int    // dense-graph sizes (complete bipartite)
	Trials      int
	Seed        int64
	Workers     int
}

// matcherRow is one sweep cell's result — the machine-readable schema
// behind matchers.csv and BENCH_matchers.json.
type matcherRow struct {
	Matcher         string  `json:"matcher"`
	Graph           string  `json:"graph"` // "sparse" or "dense"
	Ports           int     `json:"ports"`
	Degree          float64 `json:"degree"`      // realized average sender degree
	BudgetFrac      float64 `json:"budget_frac"` // 0 = unlimited
	BudgetBits      int64   `json:"budget_bits"` // realized per-round budget (0 = unlimited)
	Trial           int     `json:"trial"`
	Rounds          int     `json:"rounds"`
	Converged       bool    `json:"converged"`
	ControlMsgs     int64   `json:"control_msgs"`
	ControlBits     int64   `json:"control_bits"`
	MaxRoundBits    int64   `json:"max_round_bits"`
	Matched         int     `json:"matched"`
	MStar           int     `json:"m_star"`
	SizeVsMStar     float64 `json:"size_vs_mstar"`
	CtlBytesPerByte float64 `json:"control_bytes_per_matched_byte"`
	Reconfigs       int     `json:"reconfigs"`
}

// matcherCell is one unit of sweep work, fully determined before any
// cell executes.
type matcherCell struct {
	kind       string // "sparse" | "dense"
	kindIdx    int
	ports      int
	portIdx    int
	matcher    string
	cfgIdx     int // index over (matcher, budget) configurations
	budgetFrac float64
	trial      int
}

// matcherSweep runs every cell on a forEachIndex worker pool and returns
// rows in enumeration order (graph kind → ports → matcher/budget config
// → trial). Each cell rebuilds its graph from a seed derived only from
// the cell's indices, runs the matcher with an independent derived seed,
// and compares against M* (the table's "pim" matcher) computed on the
// same graph — so rows are pure functions of (Config, cell index) and
// the sweep is byte-identical at any Workers value.
func matcherSweep(cfg matcherSweepConfig) ([]matcherRow, error) {
	// Resolve matcher constructors up front so an unknown name, or no
	// name at all, fails before any work runs.
	if len(cfg.Matchers) == 0 {
		return nil, fmt.Errorf("matchers: no matcher named (known: %v)", matching.Names())
	}
	descs := make(map[string]matching.Descriptor, len(cfg.Matchers))
	for _, name := range cfg.Matchers {
		d, ok := matching.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("matchers: unknown matcher %q (known: %v)", name, matching.Names())
		}
		descs[name] = d
	}

	// Enumerate cells: (matcher, budget) configs first, then the graph
	// grid. Non-budgeted matchers get only the unlimited config.
	type cfgEntry struct {
		matcher string
		frac    float64
	}
	var cfgs []cfgEntry
	for _, name := range cfg.Matchers {
		cfgs = append(cfgs, cfgEntry{name, 0})
		if descs[name].Budgeted {
			for _, f := range matcherBudgetFracs {
				cfgs = append(cfgs, cfgEntry{name, f})
			}
		}
	}
	var cells []matcherCell
	kinds := []struct {
		kind  string
		ports []int
	}{{"sparse", cfg.SparsePorts}, {"dense", cfg.DensePorts}}
	for kindIdx, k := range kinds {
		for portIdx, n := range k.ports {
			for cfgIdx, ce := range cfgs {
				for trial := 0; trial < cfg.Trials; trial++ {
					cells = append(cells, matcherCell{
						kind: k.kind, kindIdx: kindIdx,
						ports: n, portIdx: portIdx,
						matcher: ce.matcher, cfgIdx: cfgIdx,
						budgetFrac: ce.frac, trial: trial,
					})
				}
			}
		}
	}

	rows := make([]matcherRow, len(cells))
	errs := make([]error, len(cells))
	forEachIndex(len(cells), cfg.Workers, func(i int) {
		rows[i], errs[i] = runMatcherCell(cfg, cells[i], descs[cells[i].matcher])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// runMatcherCell executes one cell: graph, M* reference, matcher run.
func runMatcherCell(cfg matcherSweepConfig, c matcherCell, d matching.Descriptor) (matcherRow, error) {
	// Seeds derive from the cell's grid coordinates only — not the cell's
	// position in the flattened slice — so adding matchers or budgets
	// leaves other cells' graphs unchanged.
	gseed := cfg.Seed + 1_000_000*int64(c.portIdx) + 100_000*int64(c.kindIdx) + int64(c.trial)
	var g *matching.Graph
	if c.kind == "dense" {
		g = matching.DenseGraph(c.ports, c.ports)
	} else {
		g = matching.SparseRandomGraph(rand.New(rand.NewSource(gseed)), c.ports, c.ports, matcherDegree)
	}

	// M* — converged PIM on this graph, the paper's reference point.
	ref, err := matching.MustLookup("pim").New(matching.Options{})
	if err != nil {
		return matcherRow{}, err
	}
	mStarM, _ := ref.Match(g, rand.New(rand.NewSource(gseed+13)))
	mStar := mStarM.Size()

	// Budget: a fraction of the worst-case unconstrained round cost
	// (every edge requested, each request echoed by grant + accept).
	var budgetBits int64
	if c.budgetFrac > 0 {
		budgetBits = int64(c.budgetFrac * 3 * float64(g.Edges()) * matching.ControlMsgBits)
	}
	m, err := d.New(matching.Options{BudgetBits: float64(budgetBits)})
	if err != nil {
		return matcherRow{}, err
	}
	got, st := m.Match(g, rand.New(rand.NewSource(gseed+7919*int64(c.cfgIdx+1))))
	if !got.Valid(g) {
		return matcherRow{}, fmt.Errorf("matchers: %s returned invalid matching on %s n=%d trial=%d",
			c.matcher, c.kind, c.ports, c.trial)
	}

	var maxRound int64
	for _, b := range st.RoundBits {
		if b > maxRound {
			maxRound = b
		}
	}
	row := matcherRow{
		Matcher: c.matcher, Graph: c.kind, Ports: c.ports,
		Degree:     g.AvgDegree(),
		BudgetFrac: c.budgetFrac, BudgetBits: budgetBits,
		Trial: c.trial, Rounds: st.Rounds, Converged: st.Converged,
		ControlMsgs: st.Msgs, ControlBits: st.ControlBits, MaxRoundBits: maxRound,
		Matched: got.Size(), MStar: mStar,
		CtlBytesPerByte: st.ControlBytesPerMatchedByte(got),
		Reconfigs:       st.Reconfigs,
	}
	if mStar > 0 {
		row.SizeVsMStar = float64(got.Size()) / float64(mStar)
	}
	return row, nil
}

// writeMatcherCSV writes sweep rows in the stable column order the
// golden determinism test digests.
func writeMatcherCSV(w io.Writer, rows []matcherRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"matcher", "graph", "ports", "degree", "budget_frac", "budget_bits",
		"trial", "rounds", "converged", "control_msgs", "control_bits",
		"max_round_bits", "matched", "m_star", "size_vs_mstar",
		"control_bytes_per_matched_byte", "reconfigs",
	}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Matcher, r.Graph, strconv.Itoa(r.Ports),
			fmt.Sprintf("%.3f", r.Degree),
			fmt.Sprintf("%.3f", r.BudgetFrac),
			strconv.FormatInt(r.BudgetBits, 10),
			strconv.Itoa(r.Trial), strconv.Itoa(r.Rounds),
			strconv.FormatBool(r.Converged),
			strconv.FormatInt(r.ControlMsgs, 10),
			strconv.FormatInt(r.ControlBits, 10),
			strconv.FormatInt(r.MaxRoundBits, 10),
			strconv.Itoa(r.Matched), strconv.Itoa(r.MStar),
			fmt.Sprintf("%.4f", r.SizeVsMStar),
			fmt.Sprintf("%.6f", r.CtlBytesPerByte),
			strconv.Itoa(r.Reconfigs),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// formatMatcherTable renders sweep rows as an aligned text table,
// aggregating trials per (matcher, graph, ports, budget) configuration
// in first-seen order (cells enumerate trials innermost, so
// configurations appear in sweep order).
func formatMatcherTable(w io.Writer, rows []matcherRow) {
	type aggKey struct {
		matcher, graph string
		ports          int
		frac           float64
	}
	type agg struct {
		rounds, sizeVs, ctl, reconfigs float64
		converged, n                   int
	}
	var order []aggKey
	byKey := map[aggKey]*agg{}
	for _, r := range rows {
		k := aggKey{r.Matcher, r.Graph, r.Ports, r.BudgetFrac}
		a := byKey[k]
		if a == nil {
			a = &agg{}
			byKey[k] = a
			order = append(order, k)
		}
		a.rounds += float64(r.Rounds)
		a.sizeVs += r.SizeVsMStar
		a.ctl += r.CtlBytesPerByte
		a.reconfigs += float64(r.Reconfigs)
		if r.Converged {
			a.converged++
		}
		a.n++
	}
	tbl := newTable("matcher", "graph", "ports", "budget", "rounds", "size/M*", "ctl-B/B", "converged", "reconfigs")
	for _, k := range order {
		a := byKey[k]
		budget := "-"
		if k.frac > 0 {
			budget = fmt.Sprintf("%.0f%%", k.frac*100)
		}
		tbl.add(k.matcher, k.graph, k.ports, budget,
			a.rounds/float64(a.n), a.sizeVs/float64(a.n),
			fmt.Sprintf("%.5f", a.ctl/float64(a.n)),
			fmt.Sprintf("%d/%d", a.converged, a.n),
			int(a.reconfigs)/a.n)
	}
	tbl.write(w)
}

// matcherDigest folds the canonical CSV rendering of the rows with
// FNV-1a — the digest the golden determinism test pins across -parallel
// 1/4/8.
func matcherDigest(rows []matcherRow) (uint64, error) {
	var buf bytes.Buffer
	if err := writeMatcherCSV(&buf, rows); err != nil {
		return 0, err
	}
	h := fnvOffset
	for _, b := range buf.Bytes() {
		h = fnvMix(h, uint64(b))
	}
	return h, nil
}

// defaultMatcherSweep resolves the sweep grid from experiment Options:
// the full campaign by default (sparse up to 10^5 ports), a small grid
// under quick/smoke settings.
func defaultMatcherSweep(o Options) matcherSweepConfig {
	cfg := matcherSweepConfig{
		Matchers:    matching.Names(),
		SparsePorts: []int{1024, 16384, 100_000},
		DensePorts:  []int{256, 1024},
		Trials:      3,
		Seed:        o.Seed,
		Workers:     o.EffectiveWorkers(),
	}
	if o.Matchers != "" {
		cfg.Matchers = nil
		for _, name := range strings.Split(o.Matchers, ",") {
			if name = strings.TrimSpace(name); name != "" {
				cfg.Matchers = append(cfg.Matchers, name)
			}
		}
	}
	if o.Hosts != 0 {
		cfg.SparsePorts = []int{o.Hosts}
		cfg.DensePorts = nil
		// Dense graphs have n² edges; keep the dense axis to sizes where
		// that is affordable.
		if o.Hosts <= 2048 {
			cfg.DensePorts = []int{o.Hosts}
		}
	}
	if o.Scale > 0 && o.Scale < 1 {
		cfg.Trials = 2
		if o.Hosts == 0 {
			cfg.SparsePorts = []int{256}
			cfg.DensePorts = []int{64}
		}
	}
	return cfg
}

// RunMatchers is the `-run matchers` experiment: the table-wide
// matcher-vs-matcher sweep. It prints a per-configuration table
// (averaged over trials), the sweep digest, and — with -metrics DIR —
// writes DIR/matchers.csv (every trial row) plus
// DIR/BENCH_matchers.json for CI archiving.
func RunMatchers(o Options, w io.Writer) error {
	cfg := defaultMatcherSweep(o)
	rows, err := matcherSweep(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Matcher lab: %v\n", cfg.Matchers)
	fmt.Fprintf(w, "sparse n=%v (δ̄=%.0f), dense n=%v, budgets %v of an unconstrained round, %d trials\n\n",
		cfg.SparsePorts, matcherDegree, cfg.DensePorts, matcherBudgetFracs, cfg.Trials)
	formatMatcherTable(w, rows)

	digest, err := matcherDigest(rows)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsweep digest: 0x%016x (%d rows; identical at any -parallel value)\n", digest, len(rows))

	if o.MetricsDir != "" {
		if err := os.MkdirAll(o.MetricsDir, 0o755); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := writeMatcherCSV(&buf, rows); err != nil {
			return err
		}
		csvPath := filepath.Join(o.MetricsDir, "matchers.csv")
		if err := os.WriteFile(csvPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
		bench, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			return err
		}
		benchPath := filepath.Join(o.MetricsDir, "BENCH_matchers.json")
		if err := os.WriteFile(benchPath, append(bench, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s and %s\n", csvPath, benchPath)
	}
	return nil
}
