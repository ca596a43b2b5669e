package experiments

import (
	"fmt"
	"io"

	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/workload"
)

// RunFastpass reproduces the paper's §5 quantitative claim about
// Fastpass: a centralized arbiter delivers good utilization, but every
// short flow must be scheduled before transmission, putting its average
// and tail latency at least ~2× from optimal — while dcPIM's short flows
// bypass matching entirely and land near 1.
func RunFastpass(o Options, w io.Writer) error {
	tp := leafSpineFor(o.Hosts)
	horizon := o.scaled(1 * sim.Millisecond)
	fmt.Fprintf(w, "§5: dcPIM vs Fastpass, IMC10 all-to-all at load 0.5 (horizon %v)\n\n", horizon)
	tbl := newTable("protocol", "short-mean", "short-p99", "all-mean", "completed", "drops")
	for _, proto := range []string{DCPIM, Fastpass} {
		tr := workload.AllToAllConfig{
			Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.5,
			Dist: workload.IMC10(), Horizon: horizon, Seed: o.Seed,
		}.Generate()
		res := Run(RunSpec{
			Protocol: proto, Topo: tp, Trace: tr,
			Horizon: horizon + horizon/2, Seed: o.Seed + 51, Shards: o.Shards,
		})
		short := stats.Summarize(res.Records, func(r stats.FlowRecord) bool {
			return r.Size <= tp.BDP()
		})
		all := stats.Summarize(res.Records, nil)
		tbl.add(proto, short.Mean, short.P99, all.Mean,
			fmt.Sprintf("%d/%d", res.Col.Completed(), res.Started), res.Counters.DataDrops)
	}
	tbl.write(w)
	fmt.Fprintln(w, "\npaper (§5): Fastpass short flows are ≥2x from optimal at mean and tail; dcPIM ≈1")
	return nil
}
