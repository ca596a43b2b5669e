package main

import (
	"dcpim/internal/experiments"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// cell is one benchmark workload: a fixed (topology, size distribution,
// horizon, protocol set, shard count). Only the seed varies between runs.
// The why strings are the record of why each cell is in the benchmark;
// BENCHMARK.json and the README carry the same text.
type cell struct {
	name      string
	why       string
	topo      func() *topo.Topology
	dist      func() *workload.EmpiricalDist
	horizon   sim.Duration // trace horizon; the run horizon is 1.5x
	subSeeds  int          // traces per benchmark seed; see subSeed
	protocols []string     // one spec per protocol, all over the one trace
	shards    int
	// digestOf names the cell whose digest this one must reproduce: the
	// same trace and seed executed differently.
	digestOf string
}

// load is the offered load of every cell (the paper's Fig. 3-5 setting).
const load = 0.6

// Horizons are sized so that one repetition takes about a second on the
// 2-core reference box. That box's speed moves by +-10% in bursts of a few
// hundred milliseconds, so the median of a dozen short repetitions is far
// steadier than the mean of two long ones; and several short traces per
// seed (subSeeds) give the simulated statistics as many flows as one long
// trace would. README.md records the horizons the issue first proposed.
var cells = []cell{
	{
		name: "ls144-dcpim",
		why:  "paper Fig. 3 cell: 144-host leaf-spine, IMC10; shallow event queue, so queue ordering and dcPIM handlers weigh most",
		topo: func() *topo.Topology { return topo.DefaultLeafSpine().Build() },
		dist: workload.IMC10, horizon: 200 * sim.Microsecond, subSeeds: 8,
		protocols: []string{experiments.DCPIM},
	},
	{
		name: "ft1024-dcpim",
		why:  "paper Fig. 5(c,d) cell: 1024-host FatTree, WebSearch; 5-hop paths and a deep queue, so forwarding and allocation weigh most",
		topo: func() *topo.Topology { return topo.DefaultFatTree().Build() },
		dist: workload.WebSearch, horizon: 50 * sim.Microsecond, subSeeds: 4,
		protocols: []string{experiments.DCPIM},
	},
	{
		name: "ft1024-dcpim-shards2",
		why:  "same trace and seed as ft1024-dcpim on 2 shards: adds group epochs and staging drain; digest must match the serial cell",
		topo: func() *topo.Topology { return topo.DefaultFatTree().Build() },
		dist: workload.WebSearch, horizon: 50 * sim.Microsecond, subSeeds: 4,
		protocols: []string{experiments.DCPIM},
		shards:    2,
		digestOf:  "ft1024-dcpim",
	},
	{
		name: "ft8192-dcpim",
		why:  "8192-host FatTree, WebSearch: working set beyond cache, so memory layout, set-up time and peak RSS show here",
		topo: func() *topo.Topology { return topo.HyperscaleFatTree().Build() },
		dist: workload.WebSearch, horizon: 12 * sim.Microsecond, subSeeds: 3,
		protocols: []string{experiments.DCPIM},
	},
	{
		name: "ls144-baselines",
		why:  "homa-aeolus, ndp, hpcc over one 144-host IMC10 trace via RunMany: lossy paths, timer cancel and the worker pool, no dcPIM code",
		topo: func() *topo.Topology { return topo.DefaultLeafSpine().Build() },
		dist: workload.IMC10, horizon: 100 * sim.Microsecond, subSeeds: 8,
		protocols: []string{experiments.HomaAeolus, experiments.NDP, experiments.HPCC},
	},
}

func cellByName(name string) (cell, bool) {
	for _, c := range cells {
		if c.name == name {
			return c, true
		}
	}
	return cell{}, false
}

// subSeed is the j-th trace-and-run seed under one benchmark seed; the
// sets of different benchmark seeds are disjoint.
func subSeed(seed int64, j int) int64 { return seed*1000 + int64(j) }

// trace generates the cell's input from the seed; this is the only thing
// the program under test sees of the seed besides RunSpec.Seed.
func (c cell) trace(tp *topo.Topology, seed int64) *workload.Trace {
	return workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: load,
		Dist: c.dist(), Horizon: c.horizon, Seed: seed,
	}.Generate()
}

// specs builds one RunSpec per protocol. Queue, Barrier and every other
// tuning knob stay at their zero values on purpose: the benchmark
// measures whatever the defaults select.
func (c cell) specs(tp *topo.Topology, tr *workload.Trace, seed int64) []experiments.RunSpec {
	out := make([]experiments.RunSpec, len(c.protocols))
	for i, p := range c.protocols {
		out[i] = experiments.RunSpec{
			Protocol: p, Topo: tp, Trace: tr,
			Horizon: c.horizon + c.horizon/2,
			Seed:    seed, Shards: c.shards, Digest: true,
		}
	}
	return out
}
