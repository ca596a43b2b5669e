package experiments

import (
	"fmt"
	"io"

	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// RunFig5ab reproduces Figure 5(a,b): the 2:1 oversubscribed leaf-spine
// at load 0.5 (the highest load every baseline survives there). The paper
// compares dcPIM, NDP and HPCC (Homa Aeolus was not runnable on
// oversubscribed topologies); dcPIM's token clocking absorbs core
// congestion.
func RunFig5ab(o Options, w io.Writer) error {
	tp := oversubFor(o.Hosts)
	horizon := o.scaled(2 * sim.Millisecond)
	protos := []string{DCPIM, NDP, HPCC}

	fmt.Fprintf(w, "Figure 5(a,b): oversubscribed (2:1) leaf-spine at load 0.5 (horizon %v)\n", horizon)
	fmt.Fprintln(w, "(Homa Aeolus omitted, as in the paper)")
	buckets := stats.DefaultBuckets(tp.BDP())
	dists := fig3Workloads()
	var specs []RunSpec
	for _, dist := range dists {
		for _, proto := range protos {
			tr := workload.AllToAllConfig{
				Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.5,
				Dist: dist, Horizon: horizon, Seed: o.Seed,
			}.Generate()
			specs = append(specs, RunSpec{
				Protocol: proto, Topo: tp, Trace: tr,
				Horizon: horizon + horizon/2, Seed: o.Seed + 13, Shards: o.Shards,
			})
		}
	}
	results := RunMany(specs, o.workers())
	for di, dist := range dists {
		fmt.Fprintf(w, "\n-- workload %s --\n", dist.Name())
		tbl := newTable(append([]string{"protocol", "metric"}, bucketLabels(buckets)...)...)
		for pi, proto := range protos {
			res := results[di*len(protos)+pi]
			bs := stats.BucketSlowdowns(res.Records, buckets)
			mean := []any{proto, "mean"}
			tail := []any{proto, "p99"}
			for _, b := range bs {
				mean = append(mean, cell(b.Summary.Count, b.Summary.Mean))
				tail = append(tail, cell(b.Summary.Count, b.Summary.P99))
			}
			tbl.add(mean...)
			tbl.add(tail...)
		}
		tbl.write(w)
	}
	fmt.Fprintln(w, "\npaper: same trend as Figure 3 — dcPIM's token clocking handles core congestion")
	return nil
}

// RunFig5cd reproduces Figure 5(c,d): the three-tier 1024-host FatTree at
// load 0.6. Pipelining hides the longer RTTs; results mirror Figure 3.
func RunFig5cd(o Options, w io.Writer) error {
	tp := fatTreeFor(o.Hosts)
	horizon := o.scaled(1 * sim.Millisecond)
	dists := fig3Workloads()
	if o.Scale < 1 {
		dists = dists[:1] // quick mode: IMC10 only
	}

	fmt.Fprintf(w, "Figure 5(c,d): FatTree %s at load 0.6 (horizon %v)\n", tp.Name, horizon)
	buckets := stats.DefaultBuckets(tp.BDP())
	var specs []RunSpec
	for _, dist := range dists {
		for _, proto := range Comparators {
			tr := workload.AllToAllConfig{
				Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.6,
				Dist: dist, Horizon: horizon, Seed: o.Seed,
			}.Generate()
			specs = append(specs, RunSpec{
				Protocol: proto, Topo: tp, Trace: tr,
				Horizon: horizon + horizon/2, Seed: o.Seed + 21, Shards: o.Shards,
			})
		}
	}
	results := RunMany(specs, o.workers())
	for di, dist := range dists {
		fmt.Fprintf(w, "\n-- workload %s --\n", dist.Name())
		tbl := newTable(append([]string{"protocol", "metric"}, bucketLabels(buckets)...)...)
		for pi, proto := range Comparators {
			res := results[di*len(Comparators)+pi]
			bs := stats.BucketSlowdowns(res.Records, buckets)
			mean := []any{proto, "mean"}
			tail := []any{proto, "p99"}
			for _, b := range bs {
				mean = append(mean, cell(b.Summary.Count, b.Summary.Mean))
				tail = append(tail, cell(b.Summary.Count, b.Summary.P99))
			}
			tbl.add(mean...)
			tbl.add(tail...)
		}
		tbl.write(w)
	}
	fmt.Fprintln(w, "\npaper: same trend as Figure 3; matching-phase length set by the longest cRTT is hidden by pipelining")
	_ = topo.DefaultFatTree
	return nil
}
