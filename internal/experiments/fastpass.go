package experiments

import (
	"fmt"
	"io"

	"dcpim/internal/sim"
	"dcpim/internal/workload"
)

// RunFastpass reproduces the paper's §5 quantitative claim about
// Fastpass: a centralized arbiter delivers good utilization, but every
// short flow must be scheduled before transmission, while dcPIM's short
// flows bypass matching entirely. The paper's numbers are its rows in
// targets.
func RunFastpass(o Options, w io.Writer) error {
	tp := leafSpineFor(o.Hosts)
	horizon := o.scaled(1 * sim.Millisecond)
	fmt.Fprintf(w, "§5: dcPIM vs Fastpass, IMC10 all-to-all at load 0.5 (horizon %v)\n\n", horizon)
	tbl := newTable("protocol", "short-mean", "short-p99", "all-mean", "completed", "drops")
	tr := allToAll(tp, workload.IMC10(), 0.5, horizon, o.Seed)
	fig := figure{topo: tp, horizon: horizon + horizon/2, seed: o.Seed + 51}
	for _, res := range fig.run(o, perProtocol("fastpass", []string{DCPIM, Fastpass}, tr)) {
		c := sizeClasses(res, tp.BDP())
		tbl.add(res.Protocol, c.short.Mean, c.short.P99, c.all.Mean, completed(res), res.Counters.DataDrops)
	}
	tbl.write(w)
	return writeTargets(w, o, "fastpass", tbl)
}
