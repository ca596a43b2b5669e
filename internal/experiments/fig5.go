package experiments

import (
	"fmt"
	"io"

	"dcpim/internal/sim"
)

// RunFig5ab reproduces Figure 5(a,b): the 2:1 oversubscribed leaf-spine
// at load 0.5 (the highest load every baseline survives there). The paper
// compares dcPIM, NDP and HPCC (Homa Aeolus was not runnable on
// oversubscribed topologies); its claims are the rows in targets.
func RunFig5ab(o Options, w io.Writer) error {
	tp := oversubFor(o.Hosts)
	horizon := o.scaled(2 * sim.Millisecond)
	protos := []string{DCPIM, NDP, HPCC}

	fmt.Fprintf(w, "Figure 5(a,b): oversubscribed (2:1) leaf-spine at load 0.5 (horizon %v)\n", horizon)
	fmt.Fprintln(w, "(Homa Aeolus omitted, as in the paper)")
	dists := fig3Workloads()
	fig := figure{topo: tp, horizon: horizon + horizon/2, seed: o.Seed + 13}
	results := fig.run(o, workloadCells("fig5ab", tp, dists, protos, 0.5, horizon, o.Seed))
	return writeTargets(w, o, "fig5ab", writeBucketTables(w, tp.BDP(), dists, results)...)
}

// RunFig5cd reproduces Figure 5(c,d): the three-tier 1024-host FatTree at
// load 0.6, IMC10 alone below -scale 1. The paper's claims are its rows
// in targets.
func RunFig5cd(o Options, w io.Writer) error {
	tp := fatTreeFor(o.Hosts)
	horizon := o.scaled(1 * sim.Millisecond)
	dists := fig3Workloads()
	if o.Scale < 1 {
		dists = dists[:1] // quick mode: IMC10 only
	}

	fmt.Fprintf(w, "Figure 5(c,d): FatTree %s at load 0.6 (horizon %v)\n", tp.Name, horizon)
	fig := figure{topo: tp, horizon: horizon + horizon/2, seed: o.Seed + 21}
	results := fig.run(o, workloadCells("fig5cd", tp, dists, Comparators, 0.6, horizon, o.Seed))
	return writeTargets(w, o, "fig5cd", writeBucketTables(w, tp.BDP(), dists, results)...)
}
