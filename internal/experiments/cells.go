package experiments

import (
	"io"
	"math"

	"dcpim/internal/core"
	"dcpim/internal/faults"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// cell is one simulation of a figure: a protocol over a trace, with an
// optional dcPIM configuration or fault schedule. The label names the
// run's -metrics and -checkpoint files, so it is unique within a figure.
type cell struct {
	label    string
	protocol string
	trace    *workload.Trace
	dcpim    *core.Config
	faults   *faults.Schedule
}

// figure is what every cell of one figure shares.
type figure struct {
	topo    *topo.Topology
	horizon sim.Duration // run horizon: the trace's plus any drain
	seed    int64        // run seed
	bin     sim.Duration // utilization series bin (0 = 10 µs)
}

// run turns the figure's cells into RunSpecs and runs them through
// RunMany, returning the results in cell order.
func (f figure) run(o Options, cells []cell) []RunResult {
	specs := make([]RunSpec, len(cells))
	for i, c := range cells {
		specs[i] = RunSpec{
			Protocol: c.protocol, Topo: f.topo, Trace: c.trace,
			Horizon: f.horizon, Seed: f.seed, Shards: o.Shards, BinWidth: f.bin,
			DcPIM: c.dcpim, Faults: c.faults,
			Metrics: o.metrics(c.label), Checkpoint: o.checkpoint(c.label),
		}
	}
	return RunMany(specs, o.EffectiveWorkers())
}

// allToAll generates the evaluation's all-to-all trace on tp (see
// workload.AllToAllConfig). Every protocol compared at one (workload,
// load) point runs over the one trace it returns.
func allToAll(tp *topo.Topology, dist workload.SizeDist, load float64, horizon sim.Duration, seed int64) *workload.Trace {
	return workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: load,
		Dist: dist, Horizon: horizon, Seed: seed,
	}.Generate()
}

// perProtocol is one cell per protocol over the shared trace tr, labeled
// <prefix>-<protocol>.
func perProtocol(prefix string, protos []string, tr *workload.Trace) []cell {
	cells := make([]cell, len(protos))
	for i, proto := range protos {
		cells[i] = cell{label: prefix + "-" + proto, protocol: proto, trace: tr}
	}
	return cells
}

// workloadCells is the workload × protocol grid at one load, workload
// major: one trace per workload, shared by its protocols, with cells
// labeled <id>-<workload>-<protocol>.
func workloadCells(id string, tp *topo.Topology, dists []workload.SizeDist, protos []string, load float64, horizon sim.Duration, seed int64) []cell {
	var cells []cell
	for _, dist := range dists {
		tr := allToAll(tp, dist, load, horizon, seed)
		cells = append(cells, perProtocol(id+"-"+dist.Name(), protos, tr)...)
	}
	return cells
}

// dcpimCell is a dcPIM cell over tr whose configuration is the default
// with edit applied.
func dcpimCell(label string, tr *workload.Trace, edit func(*core.Config)) cell {
	cfg := core.DefaultConfig()
	edit(&cfg)
	return cell{label: label, protocol: DCPIM, trace: tr, dcpim: &cfg}
}

// writeBucketTables prints one size-bucket table per workload, titled
// "workload <name>", from the results of a workloadCells grid over dists,
// and returns the tables.
func writeBucketTables(w io.Writer, bdp int64, dists []workload.SizeDist, results []RunResult) []*table {
	per := len(results) / len(dists)
	tables := make([]*table, len(dists))
	for i, dist := range dists {
		tables[i] = bucketTable(bdp, results[i*per:(i+1)*per])
		tables[i].title = "workload " + dist.Name()
		tables[i].write(w)
	}
	return tables
}

// bucketTable folds runs into the slowdown-by-flow-size table: a mean row
// and a p99 row per run over stats.DefaultBuckets, keyed "<protocol>
// <metric>".
func bucketTable(bdp int64, results []RunResult) *table {
	buckets := stats.DefaultBuckets(bdp)
	header := []string{"protocol", "metric"}
	for _, b := range buckets {
		header = append(header, b.Label)
	}
	tbl := newTable(header...)
	tbl.keys = 2
	for _, res := range results {
		mean := []any{res.Protocol, "mean"}
		tail := []any{res.Protocol, "p99"}
		for _, b := range stats.BucketSlowdowns(res.Records, buckets) {
			mean = append(mean, measured(b.Summary, b.Summary.Mean))
			tail = append(tail, measured(b.Summary, b.Summary.P99))
		}
		tbl.add(mean...)
		tbl.add(tail...)
	}
	return tbl
}

// measured is v, a statistic of s, or NaN when s summarizes no flows
// (stats.Summarize gives an empty class a zero summary).
func measured(s stats.Summary, v float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return v
}

// class is one size class's mean and p99 slowdown, each NaN when the
// class finished no flow.
type class struct{ mean, p99 float64 }

// classes are a run's slowdowns by size class: short flows fit in one
// BDP, medium ones in 16, long ones are larger.
type classes struct{ short, medium, long, all class }

// sizeClasses summarizes res by size class on a fabric of the given BDP.
func sizeClasses(res RunResult, bdp int64) classes {
	of := func(keep func(stats.FlowRecord) bool) class {
		s := stats.Summarize(res.Records, keep)
		return class{measured(s, s.Mean), measured(s, s.P99)}
	}
	return classes{
		short:  of(func(r stats.FlowRecord) bool { return r.Size <= bdp }),
		medium: of(func(r stats.FlowRecord) bool { return r.Size > bdp && r.Size <= 16*bdp }),
		long:   of(func(r stats.FlowRecord) bool { return r.Size > 16*bdp }),
		all:    of(nil),
	}
}

// completed is a run's completed flows over the flows it started.
func completed(res RunResult) fraction {
	return fraction{res.Col.Completed(), res.Started}
}
