package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"dcpim/internal/matching"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/workload"
)

// RunFig4a reproduces Figure 4(a): 16 senders in one rack run an
// all-to-all shuffle to 16 receivers in another rack, while every 100 µs
// for the first 600 µs, 50 other hosts send a 128 KB incast to one of the
// receivers. The figure is utilization (of the 16 receiver downlinks)
// over time. The paper's claims are its rows in targets.
func RunFig4a(o Options, w io.Writer) error {
	tp := leafSpineFor(o.Hosts)
	hpr := 16
	if tp.NumHosts < 48 {
		return fmt.Errorf("fig4a needs ≥48 hosts (3 racks), topology has %d", tp.NumHosts)
	}
	horizon := o.scaled(1 * sim.Millisecond)
	if horizon < 50*sim.Microsecond {
		return fmt.Errorf("fig4a needs a horizon of one 50 µs bin or more (-scale ≥ 0.05), has %v", horizon)
	}

	senders := make([]int, hpr)
	receivers := make([]int, hpr)
	var others []int
	for i := 0; i < hpr; i++ {
		senders[i] = i         // rack 0
		receivers[i] = hpr + i // rack 1
	}
	for h := 2 * hpr; h < tp.NumHosts; h++ {
		others = append(others, h)
	}

	shuffle := workload.SubsetAllToAll{
		Senders: senders, Receivers: receivers,
		HostRate: tp.HostRate, Load: 0.9,
		Dist:    workload.FixedDist{Size: 500 << 10, Tag: "shuffle-500KB"},
		Horizon: horizon, Seed: o.Seed,
	}.Generate()
	incast := workload.IncastConfig{
		Senders: others, Receivers: receivers[:1], Fanin: min(50, len(others)),
		BurstSize: 128 << 10, Interval: 100 * sim.Microsecond,
		Bursts: 6, Horizon: horizon, Seed: o.Seed + 1,
	}.Generate()
	trace := workload.Merge(shuffle, incast)

	fmt.Fprintf(w, "Figure 4(a): bursty microbenchmark — receiver-rack utilization over time (horizon %v)\n\n", horizon)
	bins := int(horizon / (50 * sim.Microsecond))
	header := []string{"protocol"}
	for b := 0; b < bins; b++ {
		header = append(header, fmt.Sprintf("%dus", (b+1)*50))
	}
	tbl := newTable(header...)
	fig := figure{topo: tp, horizon: horizon, seed: o.Seed + 9, bin: 50 * sim.Microsecond}
	for _, res := range fig.run(o, perProtocol("fig4a", Comparators, trace)) {
		// Normalize by the 16 loaded receiver downlinks, not all hosts. The
		// series has a bin per 50 µs of the run, traffic or not.
		series := res.Col.UtilizationSeries(hpr, tp.HostRate)
		row := []any{res.Protocol}
		for _, u := range series[:bins] {
			row = append(row, u)
		}
		tbl.add(row...)
	}
	tbl.write(w)
	return writeTargets(w, o, "fig4a", tbl)
}

// RunFig4b reproduces Figure 4(b): the adversarial workload where every
// flow has size BDP+1 — each flow must be matched but fills only a
// fraction of a data phase: dcPIM's worst case. The paper's claims are
// its rows in targets.
func RunFig4b(o Options, w io.Writer) error {
	tp := leafSpineFor(o.Hosts)
	horizon := o.scaled(1 * sim.Millisecond)
	size := tp.BDP() + 1

	fmt.Fprintf(w, "Figure 4(b): all flows of size BDP+1 = %d bytes, load 0.6 (horizon %v)\n\n", size, horizon)
	tbl := newTable("protocol", "mean-slowdown", "p99-slowdown", "completed")
	tr := allToAll(tp, workload.FixedDist{Size: size, Tag: "BDP+1"}, 0.6, horizon, o.Seed)
	fig := figure{topo: tp, horizon: horizon + horizon/2, seed: o.Seed + 5}
	for _, res := range fig.run(o, perProtocol("fig4b", Comparators, tr)) {
		s := stats.Summarize(res.Records, nil)
		tbl.add(res.Protocol, s.Mean, s.P99, completed(res))
	}
	tbl.write(w)
	return writeTargets(w, o, "fig4b", tbl)
}

// RunFig4c reproduces Figure 4(c): the dense traffic matrix — every host
// sends one long flow to every other host (144×143). Beside the
// protocols' utilization it prints Theorem 1's floor on the dense demand
// graph and what the bounded-round matcher achieves there. The paper's
// claims are its rows in targets.
func RunFig4c(o Options, w io.Writer) error {
	tp := leafSpineFor(o.Hosts)
	horizon := o.scaled(1 * sim.Millisecond)
	flowSize := int64(1 << 20)

	fmt.Fprintf(w, "Figure 4(c): dense %d×%d traffic matrix of %d-byte flows (horizon %v)\n\n",
		tp.NumHosts, tp.NumHosts-1, flowSize, horizon)
	tr := workload.DenseTMConfig{Hosts: tp.NumHosts, FlowSize: flowSize, Horizon: horizon}.Generate()

	tbl := newTable("protocol", "util(steady)", "util(100-300us)", "drops", "trims", "pfc-pauses")
	fig := figure{topo: tp, horizon: horizon, seed: o.Seed + 3}
	for _, res := range fig.run(o, perProtocol("fig4c", Comparators, tr)) {
		steady := steadyUtilization(res, horizon/2, horizon)
		early := steadyUtilization(res, 100*sim.Microsecond, 300*sim.Microsecond)
		tbl.add(res.Protocol, steady, early, res.Counters.DataDrops, res.Counters.Trims, res.Counters.PFCPauses)
	}
	tbl.write(w)

	// The analytical floor beside its measured counterpart: the
	// bounded-round dcpim matcher of the registry on the same dense
	// demand graph, which shows how loose the floor is in practice.
	n := tp.NumHosts
	bounded, err := matching.MustLookup("dcpim").New(matching.Options{Rounds: 4})
	if err != nil {
		return err
	}
	dm, dst := bounded.Match(matching.DenseGraph(n, n), rand.New(rand.NewSource(o.Seed+11)))
	dense := titled("Theorem 1 on the dense demand graph (δ̄ = n, r = 4)", "matching", "matched", "rounds")
	dense.add("floor (α ≈ 1.2)", matching.TheoremBound(float64(n), float64(n)/(float64(n)*0.83), 4), 4)
	dense.add("dcpim matcher", fraction{int64(dm.Size()), int64(n)}, dst.Rounds)
	dense.write(w)
	return writeTargets(w, o, "fig4c", tbl, dense)
}
