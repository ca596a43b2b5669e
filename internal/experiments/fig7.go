package experiments

import (
	"fmt"
	"io"

	"dcpim/internal/sim"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// RunFig7 reproduces Figure 7, the paper's testbed result: 32 servers on
// a 10 Gbps leaf-spine with software host stacks (~8 µs RTT), all-to-all
// traffic at load 0.5, comparing dcPIM against DCTCP and TCP Cubic. A
// second table divides each baseline's slowdown by dcPIM's; the paper's
// factors are its rows in targets. Here the CloudLab testbed is replaced
// by the simulated testbed topology (see DESIGN.md substitutions); the
// protocol code paths are identical.
func RunFig7(o Options, w io.Writer) error {
	tp := topo.TestbedLeafSpine().Build()
	horizon := o.scaled(40 * sim.Millisecond)
	dist := workload.WebSearch()
	protos := []string{DCPIM, DCTCP, Cubic}

	fmt.Fprintf(w, "Figure 7: 32-host 10G testbed, %s, load 0.5 (horizon %v)\n\n", dist.Name(), horizon)
	tr := allToAll(tp, dist, 0.5, horizon, o.Seed)
	fig := figure{topo: tp, horizon: horizon + horizon/2, seed: o.Seed + 41, bin: 100 * sim.Microsecond}
	results := fig.run(o, perProtocol("fig7", protos, tr))
	buckets := bucketTable(tp.BDP(), results)
	buckets.write(w)

	// Every cell is a slowdown ratio, the long-flow one included; a size
	// class that either side left empty is NaN.
	adv := titled("baseline slowdown over dcPIM's", "baseline", "short-mean", "short-p99", "long-mean")
	d := sizeClasses(results[0], tp.BDP())
	for _, res := range results[1:] {
		r := sizeClasses(res, tp.BDP())
		adv.add(res.Protocol, measured(r.short, r.short.Mean)/measured(d.short, d.short.Mean),
			measured(r.short, r.short.P99)/measured(d.short, d.short.P99),
			measured(r.long, r.long.Mean)/measured(d.long, d.long.Mean))
	}
	adv.write(w)
	// The testbed has one size: -hosts does not shrink it.
	return writeTargets(w, Options{Scale: o.Scale}, "fig7", buckets, adv)
}
