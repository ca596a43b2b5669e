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
// traffic at load 0.5, comparing dcPIM against DCTCP and TCP Cubic. The
// paper reports dcPIM short flows 21–43× better mean slowdown and 34–76×
// better p99 than DCTCP/TCP, with 1.71–2.61× higher long-flow throughput.
// Here the CloudLab testbed is replaced by the simulated testbed topology
// (see DESIGN.md substitutions); the protocol code paths are identical.
func RunFig7(o Options, w io.Writer) error {
	tp := topo.TestbedLeafSpine().Build()
	horizon := o.scaled(40 * sim.Millisecond)
	dist := workload.WebSearch()
	protos := []string{DCPIM, DCTCP, Cubic}

	fmt.Fprintf(w, "Figure 7: 32-host 10G testbed, %s, load 0.5 (horizon %v)\n\n", dist.Name(), horizon)
	tr := allToAll(tp, dist, 0.5, horizon, o.Seed)
	fig := figure{topo: tp, horizon: horizon + horizon/2, seed: o.Seed + 41, bin: 100 * sim.Microsecond}
	results := fig.run(o, perProtocol("fig7", protos, tr))
	bucketTable(tp.BDP(), results).write(w)

	d := sizeClasses(results[0], tp.BDP())
	fmt.Fprintf(w, "\nshort-flow advantage of dcPIM (paper: 21-43x mean, 34-76x p99):\n")
	for _, res := range results[1:] {
		r := sizeClasses(res, tp.BDP())
		fmt.Fprintf(w, "  vs %-6s mean %s, p99 %s; long-flow mean slowdown ratio %s\n", res.Protocol,
			ratio(r.short.Mean, d.short.Mean, 1), ratio(r.short.P99, d.short.P99, 1), ratio(r.long.Mean, d.long.Mean, 2))
	}
	return nil
}

// ratio renders a over b as a factor to prec decimals, or "-" when either
// side summarizes an empty size class (stats.Summarize gives an empty
// class a zero summary).
func ratio(a, b float64, prec int) string {
	if a == 0 || b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.*fx", prec, a/b)
}
