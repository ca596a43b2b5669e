package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is reported on every workload, median of the untraced
// repetitions. Events per second is deliberately absent: merging or
// removing events lowers it while lowering wall_s.
//
// Each bound is about three times the widest interquartile spread seen
// over ten seeds on the reference box (README.md has the table), whose
// speed drifts with its neighbours: the issue's 10% on host time is not
// resolvable there, and -compare says "unresolved" rather than pretend.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"pkts_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"sim.short_p99_slowdown", "ratio", "lower", 0.20},
	{"sim.mean_slowdown", "ratio", "lower", 0.10},
	{"sim.goodput_frac", "ratio", "higher", 0.15},
}

// perLayer is reported from the traced repetition and the probes.
// README.md says which end-to-end metric each should move, and where.
var perLayer = []metricDef{
	// sim: event queue
	{"sim.queue.hold_ns.p3k", "ns/op", "lower", 0},
	{"sim.queue.hold_ns.p20k", "ns/op", "lower", 0},
	{"sim.queue.hold_ns.p150k", "ns/op", "lower", 0},
	{"sim.queue.cancel_ns.p3k", "ns/op", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.events_per_pkt", "1/pkt", "lower", 0},
	{"sim.events_per_s", "1/s", "higher", 0},
	{"sim.queue.cpu_share", "share", "lower", 0},
	// sim: group
	{"sim.group.epoch_ns.busy2", "ns/op", "lower", 0},
	{"sim.group.epochs", "count", "lower", 0},
	{"sim.group.skipped_frac", "share", "higher", 0},
	{"sim.group.shard_balance", "share", "higher", 0},
	{"sim.group.cpu_share", "share", "lower", 0},
	{"sim.group.speedup", "ratio", "higher", 0},
	// netsim: forwarding
	{"netsim.forward.ns_per_pkt.mtu", "ns/pkt", "lower", 0},
	{"netsim.forward.ns_per_pkt.ctrl", "ns/pkt", "lower", 0},
	{"netsim.forward.allocs_per_pkt", "1/pkt", "lower", 0},
	{"netsim.forward.events_per_pkt", "1/pkt", "lower", 0},
	{"netsim.observer.ns_per_pkt", "ns/pkt", "lower", 0},
	{"netsim.pkts.data", "count", "higher", 0},
	{"netsim.pkts.ctrl", "count", "lower", 0},
	{"netsim.drops", "count", "lower", 0},
	{"netsim.trims", "count", "lower", 0},
	{"netsim.ecn_marks", "count", "lower", 0},
	{"netsim.forward.cpu_share", "share", "lower", 0},
	// netsim: shard staging
	{"netsim.shard.staged", "count", "lower", 0},
	{"netsim.shard.staged_per_epoch", "1/epoch", "lower", 0},
	{"netsim.shard.cpu_share", "share", "lower", 0},
	// core (dcPIM handlers)
	{"core.cpu_share", "share", "lower", 0},
	{"core.ns_per_pkt", "ns/pkt", "lower", 0},
	{"core.ctrl_per_data_pkt", "ratio", "lower", 0},
	// protocols (baselines)
	{"protocols.homa-aeolus.wall_s", "s", "lower", 0},
	{"protocols.ndp.wall_s", "s", "lower", 0},
	{"protocols.hpcc.wall_s", "s", "lower", 0},
	{"protocols.cpu_share", "share", "lower", 0},
	// experiments harness
	{"experiments.wire_s", "s", "lower", 0},
	{"experiments.runmany_efficiency", "share", "higher", 0},
	{"experiments.cpu_share", "share", "lower", 0},
	// topo, workload, stats
	{"topo.build_ms", "ms", "lower", 0},
	{"topo.partition_ms", "ms", "lower", 0},
	{"workload.gen_ns_per_flow", "ns/flow", "lower", 0},
	{"stats.summarize_ns_per_record", "ns/record", "lower", 0},
	// metrics, checkpoint
	{"metrics.sample_overhead_pct", "%", "lower", 0},
	{"checkpoint.capture_ms", "ms", "lower", 0},
	{"checkpoint.snapshot_kb", "kB", "lower", 0},
	// Go runtime
	{"runtime.mallocs_per_pkt", "1/pkt", "lower", 0},
	{"runtime.alloc_bytes_per_pkt", "B/pkt", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_cpu_share", "share", "lower", 0},
	// unmapped CPU, and what tracing itself costs
	{"other.cpu_share", "share", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// cpuShareMetric maps each profile layer to the metric that reports it.
var cpuShareMetric = map[string]string{
	layerQueue:     "sim.queue.cpu_share",
	layerGroup:     "sim.group.cpu_share",
	layerForward:   "netsim.forward.cpu_share",
	layerShard:     "netsim.shard.cpu_share",
	layerCore:      "core.cpu_share",
	layerProtocols: "protocols.cpu_share",
	layerHarness:   "experiments.cpu_share",
	layerGC:        "runtime.gc_cpu_share",
	layerOther:     "other.cpu_share",
}

// summary is a median with quartiles, as Python's
// statistics.quantiles(values, n=4) gives them, and the sample count.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), Values: xs}
	if len(xs) == 0 {
		s.Median, s.Q1, s.Q3 = math.NaN(), math.NaN(), math.NaN()
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		s.Median, s.Q1, s.Q3 = sorted[0], sorted[0], sorted[0]
		return s
	}
	// The "exclusive" method: the i-th of n cut points sits at rank
	// i*(m+1)/n, interpolated linearly, clamped to the data.
	m := len(sorted)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	s.Q1, s.Median, s.Q3 = cut(1), cut(2), cut(3)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// measured is one reported metric value.
type measured struct {
	Unit string `json:"unit"`
	summary
}

// workloadReport is everything the benchmark says about one workload.
type workloadReport struct {
	Name      string              `json:"name"`
	Seed      int64               `json:"seed"`
	Digests   []string            `json:"digests"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
	EndToEnd  map[string]measured `json:"end_to_end,omitempty"`
	PerLayer  map[string]measured `json:"per_layer,omitempty"`

	// Kept for the rest of a full run, not written out: the first
	// repetition of each sub-seed (the reference for a cell that must
	// reproduce this one), the workload-independent per-layer values, and
	// the traced spans.
	first  []*runResult
	shared map[string]float64
	spans  []span
}

func (w *workloadReport) fail(format string, a ...any) {
	w.Failed++
	w.Failures = append(w.Failures, fmt.Sprintf(format, a...))
}

// paperShortP99 is the paper's short-flow p99 slowdown range (Fig. 3c-e),
// printed beside the simulated value so the simulator's error stands next
// to every speed number.
const paperShortP99 = "paper 1.09-1.16"

// print writes the report's metrics in the fixed order of the definition
// tables, so that two outputs diff cleanly.
func (w *workloadReport) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s seed %d\n", w.Name, w.Seed)
	printMetrics(out, "end-to-end", endToEnd, w.EndToEnd)
	printMetrics(out, "per-layer", perLayer, w.PerLayer)
	fmt.Fprintf(out, "  digests %v\n", w.Digests)
	fmt.Fprintf(out, "  runs attempted %d failed %d\n", w.Attempted, w.Failed)
	for _, f := range w.Failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
}

func printMetrics(out io.Writer, kind string, defs []metricDef, got map[string]measured) {
	if len(got) == 0 {
		return
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-10s %-32s %14.6g %-9s q1 %-12.6g q3 %-12.6g n %d  %s is better",
			kind, d.Name, m.Median, m.Unit, m.Q1, m.Q3, m.N, d.Better)
		if d.Bound > 0 {
			fmt.Fprintf(out, ", bound %.0f%%", d.Bound*100)
		}
		if d.Name == "sim.short_p99_slowdown" {
			fmt.Fprintf(out, " (%s)", paperShortP99)
		}
		fmt.Fprintln(out)
	}
}
