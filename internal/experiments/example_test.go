package experiments_test

import (
	"fmt"

	"dcpim/internal/experiments"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// ExampleRunMany runs the paper's central head-to-head on one screen:
// every simulated transport over the same Web Search trace at load 0.6
// on the 144-host leaf-spine, as one RunMany batch. dcPIM posts the
// lowest short-flow slowdowns at both mean and p99; the trace horizon is
// short, so every protocol still holds part of it in flight at the end.
func ExampleRunMany() {
	tp := topo.DefaultLeafSpine().Build()
	horizon := 250 * sim.Microsecond
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.6,
		Dist: workload.WebSearch(), Horizon: horizon, Seed: 17,
	}.Generate()
	fmt.Printf("Web Search all-to-all at load 0.6 on %s: %d flows, %.1f MB\n",
		tp.Name, len(tr.Flows), float64(tr.OfferedBytes)/1e6)

	protos := []string{
		experiments.DCPIM, experiments.HomaAeolus,
		experiments.NDP, experiments.HPCC, experiments.PHost,
	}
	specs := make([]experiments.RunSpec, len(protos))
	for i, proto := range protos {
		specs[i] = experiments.RunSpec{
			Protocol: proto, Topo: tp, Trace: tr,
			Horizon: horizon + horizon/2, Seed: 18,
		}
	}
	fmt.Printf("%-12s %10s %10s %10s %10s %10s %8s\n",
		"protocol", "short-mean", "short-p99", "all-mean", "delivered", "completed", "drops")
	for _, res := range experiments.RunMany(specs, 0) {
		short := stats.Summarize(res.Records, func(r stats.FlowRecord) bool {
			return r.Size <= tp.BDP()
		})
		all := stats.Summarize(res.Records, nil)
		fmt.Printf("%-12s %10.2f %10.2f %10.2f %9.1f%% %9.1f%% %8d\n",
			res.Protocol, short.Mean, short.P99, all.Mean,
			100*res.Utilization(), 100*res.Completion(),
			res.Counters.DataDrops+res.Counters.AeolusDrops)
	}
	// Output:
	// Web Search all-to-all at load 0.6 on leafspine-144: 1704 flows, 296.0 MB
	// protocol     short-mean  short-p99   all-mean  delivered  completed    drops
	// dcpim              1.05       1.94       1.85      48.1%      97.4%        0
	// homa-aeolus        1.48       9.93       1.51      54.2%      97.9%     3046
	// ndp                1.69       7.24       1.73      53.2%      97.5%        0
	// hpcc               1.25       3.24       1.30      52.9%      97.5%        0
	// phost              1.26       3.39       1.28      54.3%      97.9%        0
}
