package experiments

import (
	"fmt"
	"io"

	"dcpim/internal/core"
	"dcpim/internal/sim"
	"dcpim/internal/workload"
)

// RunAblation isolates two dcPIM design choices beyond the paper's Figure
// 6 sweeps:
//
//   - The FCT-optimizing first round (§3.5): with flow-size information
//     the first matching round picks smallest-remaining-flow; without it
//     (sizes unknown) the round degenerates to uniform random choice.
//     The ablation quantifies what that optimization buys medium flows.
//   - The token window (§3.2): halving or doubling the 1-BDP window
//     trades loss-recovery lag against in-network buffering.
//
// What this repository expects of each is its rows in targets.
func RunAblation(o Options, w io.Writer) error {
	tp := leafSpineFor(o.Hosts)
	horizon := o.scaled(1 * sim.Millisecond)
	const load = 0.54
	tr := allToAll(tp, workload.WebSearch(), load, horizon, o.Seed)
	bdp := tp.BDP()

	fcts := []bool{true, false}
	fracs := []float64{0.5, 1.0, 2.0}
	var cells []cell
	for _, fct := range fcts {
		cells = append(cells, dcpimCell(fmt.Sprintf("ablation-fct-%v", fct), tr, func(c *core.Config) { c.FCTRound = fct }))
	}
	for _, frac := range fracs {
		cells = append(cells, dcpimCell(fmt.Sprintf("ablation-window%.1f", frac), tr, func(c *core.Config) {
			c.WindowBytes = int64(frac * float64(bdp))
		}))
	}
	fig := figure{topo: tp, horizon: horizon + horizon/2, seed: o.Seed + 61}
	results := fig.run(o, cells)
	row := func(tbl *table, label string, res RunResult) {
		c := sizeClasses(res, bdp)
		tbl.add(label, c.short.Mean, c.short.P99, c.medium.Mean, c.medium.P99, c.all.Mean)
	}

	fmt.Fprintf(w, "dcPIM design ablations, WebSearch at load %.2f (horizon %v)\n", load, horizon)

	fct := titled("FCT-optimizing round (§3.5): flow sizes known vs unknown", "first-round", "short-mean", "short-p99", "medium-mean", "medium-p99", "all-mean")
	for i, on := range fcts {
		label := "SRPT (sizes known)"
		if !on {
			label = "random (sizes unknown)"
		}
		row(fct, label, results[i])
	}
	fct.write(w)

	window := titled("token window (§3.2): fraction of one BDP", "window", "short-mean", "short-p99", "medium-mean", "medium-p99", "all-mean")
	for i, frac := range fracs {
		row(window, fmt.Sprintf("%.1f BDP", frac), results[len(fcts)+i])
	}
	window.write(w)
	return writeTargets(w, o, "ablation", fct, window)
}
