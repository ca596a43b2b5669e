package experiments

import (
	"fmt"
	"io"

	"dcpim/internal/core"
	"dcpim/internal/sim"
	"dcpim/internal/workload"
)

// RunFig6 reproduces Figure 6: dcPIM's sensitivity to its three
// parameters — matching rounds r, channels k, and slack β — at load 0.54
// (the highest load sustainable across every combination). One parameter
// varies per sweep; the others stay at the defaults (r=4, k=4, β=1.3).
// The paper's findings are its rows in targets.
func RunFig6(o Options, w io.Writer) error {
	horizon := o.scaled(1 * sim.Millisecond)
	const load = 0.54
	tp := leafSpineFor(o.Hosts)
	tr := allToAll(tp, workload.IMC10(), load, horizon, o.Seed)

	// All three sweeps are independent probes of one parameter each; run
	// them as a single batch and print from the ordered results.
	rounds := []int{1, 2, 4, 6, 8}
	channels := []int{1, 2, 4, 8}
	betas := []float64{1.0, 1.1, 1.3, 2.0, 3.0}
	var cells []cell
	for _, r := range rounds {
		cells = append(cells, dcpimCell(fmt.Sprintf("fig6-r%d", r), tr, func(c *core.Config) { c.Rounds = r }))
	}
	for _, k := range channels {
		cells = append(cells, dcpimCell(fmt.Sprintf("fig6-k%d", k), tr, func(c *core.Config) { c.Channels = k }))
	}
	for _, b := range betas {
		cells = append(cells, dcpimCell(fmt.Sprintf("fig6-beta%.1f", b), tr, func(c *core.Config) { c.Beta = b }))
	}
	fig := figure{topo: tp, horizon: horizon + horizon/2, seed: o.Seed + 31}
	results := fig.run(o, cells)
	row := func(tbl *table, param any, res RunResult) {
		c := sizeClasses(res, tp.BDP())
		tbl.add(param, steadyUtilization(res, horizon/2, horizon)/load, c.short.mean, c.short.p99, c.all.mean)
	}

	fmt.Fprintf(w, "Figure 6: dcPIM sensitivity at load %.2f (horizon %v)\n", load, horizon)

	rt := titled("rounds r (k=4, β=1.3)", "r", "goodput/offered", "short-mean", "short-p99", "all-mean")
	for i, r := range rounds {
		row(rt, r, results[i])
	}
	rt.write(w)

	kt := titled("channels k (r=4, β=1.3)", "k", "goodput/offered", "short-mean", "short-p99", "all-mean")
	for i, k := range channels {
		row(kt, k, results[len(rounds)+i])
	}
	kt.write(w)

	bt := titled("slack β (r=4, k=4)", "beta", "goodput/offered", "short-mean", "short-p99", "all-mean")
	for i, b := range betas {
		row(bt, b, results[len(rounds)+len(channels)+i])
	}
	bt.write(w)
	return writeTargets(w, o, "fig6", rt, kt, bt)
}
