package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dcpim/internal/experiments"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// runResult is what one repetition reports: one cell, one seed, set up
// and run once. A child process prints it as one JSON line; the in-process
// test reads the struct directly.
type runResult struct {
	Cell   string `json:"cell"`
	Seed   int64  `json:"seed"`
	Traced bool   `json:"traced"`

	// Host time, seconds. SetupS is topology build + trace generation +
	// WireS, the Horizon-0 twin.
	SetupS float64 `json:"setup_s"`
	WireS  float64 `json:"wire_s"`
	WallS  float64 `json:"wall_s"`
	// SoloWallS is each spec run alone, in protocol order (solo runs only).
	SoloWallS []float64 `json:"solo_wall_s,omitempty"`
	PeakRSSMB float64   `json:"peak_rss_mb"`

	// Simulated results, exact per (cell, seed).
	Digests      []string `json:"digests"`
	Events       uint64   `json:"events"`
	Data         int64    `json:"data_pkts"`
	Ctrl         int64    `json:"ctrl_pkts"`
	Drops        int64    `json:"drops"`
	Trims        int64    `json:"trims"`
	ECNMarks     int64    `json:"ecn_marks"`
	Completed    int64    `json:"completed"`
	Records      int      `json:"records"`
	OfferedB     int64    `json:"offered_bytes"` // bytes deliverable by the horizon; see deliverable
	DeliveredB   int64    `json:"delivered_bytes"`
	ShortP99     float64  `json:"short_p99_slowdown"`
	MeanSlowdown float64  `json:"mean_slowdown"`

	// Shard ledger (zero on serial runs, which execute no epochs).
	Epochs      uint64   `json:"epochs"`
	Skipped     uint64   `json:"skipped"` // shard-epochs idle-skipped, summed over shards
	Staged      uint64   `json:"staged"`
	ShardEvents []uint64 `json:"shard_events"`

	// Traced runs only.
	Mallocs    uint64             `json:"mallocs,omitempty"`
	AllocBytes uint64             `json:"alloc_bytes,omitempty"`
	GCCycles   uint32             `json:"gc_cycles,omitempty"`
	CPUSeconds map[string]float64 `json:"cpu_s,omitempty"` // by layer, from the profile of experiments.run
	Spans      []span             `json:"spans,omitempty"`
}

// check returns why the run's outputs are unacceptable, or nil.
func (r *runResult) check() error {
	switch {
	case r.Completed == 0:
		return fmt.Errorf("%s seed %d: zero completed flows", r.Cell, r.Seed)
	case r.Data == 0:
		return fmt.Errorf("%s seed %d: zero delivered data packets", r.Cell, r.Seed)
	}
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"setup_s", r.SetupS}, {"wall_s", r.WallS}, {"peak_rss_mb", r.PeakRSSMB},
		{"short_p99_slowdown", r.ShortP99}, {"mean_slowdown", r.MeanSlowdown},
	} {
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) || m.v <= 0 {
			return fmt.Errorf("%s seed %d: %s = %v", r.Cell, r.Seed, m.name, m.v)
		}
	}
	return nil
}

// sameOutputs reports how two runs of one (cell, seed) differ in what
// they simulated, or "" when they agree.
func (r *runResult) sameOutputs(o *runResult) string {
	if diff := r.sameDigests(o); diff != "" {
		return diff
	}
	if r.Events != o.Events {
		return fmt.Sprintf("event count %d != %d", r.Events, o.Events)
	}
	return ""
}

// sameDigests is the check between a cell and the twin it must reproduce:
// a different execution of the same simulation may count events
// differently, but must deliver the same packets.
func (r *runResult) sameDigests(o *runResult) string {
	if strings.Join(r.Digests, ",") != strings.Join(o.Digests, ",") {
		return fmt.Sprintf("digest %v != %v", r.Digests, o.Digests)
	}
	return ""
}

// runCell sets the cell up and runs it once in this process. With traced
// set it also records spans, allocation deltas and a CPU profile of the
// experiments.run span. With solo set it first runs every spec alone (the
// protocols probe), then the cell as defined.
func runCell(c cell, seed int64, traced, solo bool) *runResult {
	tr := newTracer(c.name, seed, traced)
	res := &runResult{Cell: c.name, Seed: seed, Traced: traced}
	root := tr.begin("child")

	var tp *topo.Topology
	res.SetupS = tr.time("topo.build", func() { tp = c.topo() })
	var trace *workload.Trace
	res.SetupS += tr.time("workload.generate", func() { trace = c.trace(tp, seed) })
	if traced {
		// experiments.Run partitions internally; the traced run repeats
		// the call here so the ledger shows what it costs.
		shards := c.shards
		if shards < 1 {
			shards = 1
		}
		tr.time("topo.partition", func() {
			if _, err := topo.MakePartition(tp, shards); err != nil {
				panic(err)
			}
		})
	}
	specs := c.specs(tp, trace, seed)
	// The Horizon-0 twin wires the fabric, injects the trace, folds an
	// empty result and tears down: everything Run does except simulate.
	res.WireS = tr.time("experiments.wire", func() {
		for _, s := range specs {
			s.Horizon = 0
			experiments.Run(s)
		}
	})
	res.SetupS += res.WireS

	if solo {
		for _, s := range specs {
			runtime.GC()
			s := s
			res.SoloWallS = append(res.SoloWallS,
				tr.time("experiments.run.solo."+s.Protocol, func() { experiments.Run(s) }))
		}
	}

	runtime.GC() // the run starts from a heap without set-up garbage
	var ms0, ms1 runtime.MemStats
	var prof bytes.Buffer
	if traced {
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			panic(err)
		}
	}
	var out []experiments.RunResult
	res.WallS = tr.time("experiments.run", func() {
		if len(specs) == 1 {
			out = []experiments.RunResult{experiments.Run(specs[0])}
		} else {
			out = experiments.RunMany(specs, 2)
		}
	})
	if traced {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
		res.Mallocs = ms1.Mallocs - ms0.Mallocs
		res.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		res.GCCycles = ms1.NumGC - ms0.NumGC
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			panic(err)
		}
		res.CPUSeconds = attribute(p)
	}

	tr.time("stats.fold", func() { fold(res, tp, out) })
	res.PeakRSSMB = peakRSSMB()
	tr.end(root)
	res.Spans = tr.spans
	return res
}

// fold reduces the RunResults of one cell to the numbers the benchmark
// reports; slowdowns pool the records of every spec.
func fold(res *runResult, tp *topo.Topology, out []experiments.RunResult) {
	var records []stats.FlowRecord
	for _, r := range out {
		res.Digests = append(res.Digests, fmt.Sprintf("%016x", r.Digest))
		res.Events += r.Events
		res.Data += r.Counters.DeliveredData
		res.Ctrl += r.Counters.DeliveredCtrl
		res.Drops += r.Counters.TotalDrops()
		res.Trims += r.Counters.Trims
		res.ECNMarks += r.Counters.ECNMarks
		res.Completed += r.Col.Completed()
		res.OfferedB += deliverable(r)
		res.DeliveredB += r.Col.DeliveredBytes()
		records = append(records, r.Records...)
		if len(r.ShardStats) > 1 {
			// Every shard sees every epoch as dispatched or skipped.
			res.Epochs += r.ShardStats[0].Dispatched + r.ShardStats[0].Skipped
			for _, s := range r.ShardStats {
				res.Skipped += s.Skipped
				res.Staged += s.Staged
				res.ShardEvents = append(res.ShardEvents, s.Events)
			}
		}
	}
	res.Records = len(records)
	res.ShortP99 = stats.BucketSlowdowns(records, stats.DefaultBuckets(tp.BDP()))[0].Summary.P99
	res.MeanSlowdown = stats.Summarize(records, nil).Mean
}

// deliverable is the run's offered bytes with each flow capped at what its
// sender's link could carry between the flow's arrival and the horizon.
// Raw offered bytes are dominated by the few largest flows of a
// heavy-tailed trace, most of whose bytes no protocol could deliver in a
// short run; against the capped sum, goodput is comparable across seeds.
func deliverable(r experiments.RunResult) int64 {
	var sum int64
	for _, fl := range r.Trace.Flows {
		max := int64(r.HostRate / 8 * r.End.Sub(fl.Arrival).Seconds())
		if max > fl.Size {
			max = fl.Size
		}
		if max > 0 {
			sum += max
		}
	}
	return sum
}

// peakRSSMB is the process's resident-set high-water mark. /proc's VmHWM
// belongs to this address space alone; ru_maxrss, the fallback, can carry
// the parent's peak across exec.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later issue).
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   string `json:"parent"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"` // with Workload, identifies the repetition
}

// tracer times calls always and keeps spans in memory only when on.
type tracer struct {
	on       bool
	workload string
	seed     int64
	t0       time.Time
	stack    []int // indices into spans of the open spans
	spans    []span
}

func newTracer(workload string, seed int64, on bool) *tracer {
	return &tracer{on: on, workload: workload, seed: seed, t0: time.Now()}
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := ""
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].Name
	}
	t.spans = append(t.spans, span{
		Name: name, StartNS: time.Since(t.t0).Nanoseconds(),
		Parent: parent, Workload: t.workload, Seed: t.seed,
	})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].EndNS = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// time runs fn under a span and returns its duration in seconds.
func (t *tracer) time(name string, fn func()) float64 {
	i := t.begin(name)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(i)
	return d.Seconds()
}
