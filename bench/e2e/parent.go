package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// watchdog bounds every child: a simulation that hangs (an epoch barrier
// that deadlocks, say) must fail the benchmark, not wedge it.
const watchdog = 120 * time.Second

// runner launches repetitions. By default each is a re-exec of this
// binary, so it has a fresh heap, its own peak RSS and can be killed; the
// in-process test swaps in direct calls. One repetition runs at a time.
type runner struct {
	cell   func(c cell, seed int64, traced, solo bool) (*runResult, error)
	probes func(d time.Duration, seed int64) (probeValues, error)
}

func execRunner(exe, scratch string, log io.Writer) *runner {
	child := func(out any, args ...string) error {
		ctx, cancel := context.WithTimeout(context.Background(), watchdog)
		defer cancel()
		cmd := exec.CommandContext(ctx, exe, append([]string{"-child"}, args...)...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, log
		cmd.WaitDelay = 5 * time.Second
		if err := cmd.Run(); err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("killed by the %v watchdog", watchdog)
			}
			return err
		}
		return json.Unmarshal(stdout.Bytes(), out)
	}
	return &runner{
		cell: func(c cell, seed int64, traced, solo bool) (*runResult, error) {
			args := []string{"-workload", c.name, "-seed", strconv.FormatInt(seed, 10)}
			if traced {
				args = append(args, "-trace", "1")
			}
			if solo {
				args = append(args, "-solo")
			}
			res := new(runResult)
			return res, child(res, args...)
		},
		probes: func(d time.Duration, seed int64) (probeValues, error) {
			v := probeValues{}
			err := child(&v, "-probes", "-probe-time", d.String(),
				"-seed", strconv.FormatInt(seed, 10), "-scratch", scratch)
			return v, err
		},
	}
}

// childMain is the re-exec'd side: run one thing, print one JSON value.
func childMain(workload string, seed int64, traced, solo, probes bool, probeTime time.Duration, scratch string) error {
	var out any
	if probes {
		v, err := runProbes(probeTime, seed, scratch)
		if err != nil {
			return err
		}
		out = v
	} else {
		c, ok := cellByName(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		out = runCell(c, seed, traced, solo)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// plan says how much to measure on one workload.
type plan struct {
	// Untraced repetitions cycle through the cell's sub-seeds: one pass
	// when budget is 0; otherwise at least one repetition more than a
	// pass, so that some sub-seed is run twice and compared, and then on
	// until budget has passed since the first began.
	budget time.Duration
	// traced adds one traced repetition per sub-seed, the protocols probe
	// and the layer probes: together, every per-layer metric.
	traced    bool
	probeTime time.Duration
	// twin, in a full run, is the finished report of the cell this one
	// must reproduce; nil makes measure run that cell itself.
	twin *workloadReport
	// shared carries the workload-independent per-layer values (probes
	// and the protocols probe) from one workload to the next in a full
	// run; nil makes measure take them.
	shared map[string]float64
}

// measure runs one workload and checks its outputs. Every child launched
// counts as one attempted operation.
func (r *runner) measure(c cell, seed int64, p plan) *workloadReport {
	w := &workloadReport{Name: c.name, Seed: seed}
	run := func(c cell, j int, traced bool) *runResult {
		w.Attempted++
		res, err := r.cell(c, subSeed(seed, j), traced, false)
		if err == nil {
			err = res.check()
		}
		if err != nil {
			w.fail("%s sub-seed %d: %v", c.name, j, err)
			return nil
		}
		return res
	}
	k := c.subSeeds
	// Below, a failed run ends the workload at once: a hang has already
	// cost one watchdog, and the invocation has a time limit of its own.

	// The twin's runs: the digests to reproduce and the serial wall_s.
	var twin []*runResult
	var twinWall float64
	if c.digestOf != "" {
		if p.twin != nil {
			twin, twinWall = p.twin.first, p.twin.EndToEnd["wall_s"].Median
		} else {
			tc, _ := cellByName(c.digestOf)
			var walls []float64
			for j := 0; j < k; j++ {
				res := run(tc, j, false)
				if res == nil {
					return w
				}
				twin = append(twin, res)
				walls = append(walls, res.WallS)
			}
			twinWall = summarize(walls).Median
		}
	}

	w.first = make([]*runResult, k)
	var reps []*runResult
	minReps := k
	if p.budget > 0 {
		minReps = k + 1
	}
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < p.budget; i++ {
		j := i % k
		res := run(c, j, false)
		if res == nil {
			return w
		}
		if first := w.first[j]; first == nil {
			w.first[j] = res
		} else if diff := first.sameOutputs(res); diff != "" {
			w.fail("sub-seed %d: repetition %d differs from the first: %s", j, i, diff)
		}
		reps = append(reps, res)
	}
	for j, first := range w.first {
		w.Digests = append(w.Digests, first.Digests...)
		if twin != nil {
			if diff := twin[j].sameDigests(first); diff != "" {
				w.fail("sub-seed %d: %s does not reproduce %s: %s", j, c.name, c.digestOf, diff)
			}
		}
	}
	w.EndToEnd = endToEndOf(reps, w.first)

	if !p.traced {
		return w
	}
	var traced []*runResult
	for j, first := range w.first {
		t := run(c, j, true)
		if t == nil {
			return w
		}
		if diff := first.sameOutputs(t); diff != "" {
			w.fail("sub-seed %d: traced repetition differs from the first: %s", j, diff)
		}
		traced = append(traced, t)
		w.spans = append(w.spans, t.Spans...)
	}
	if w.shared = p.shared; w.shared == nil {
		w.shared = r.shared(seed, p.probeTime, w)
	}
	w.PerLayer = perLayerOf(traced, w.EndToEnd["wall_s"].Median, twinWall, w.shared)
	return w
}

// shared takes the per-layer values that do not depend on the workload:
// the layer probes, and the protocols probe (each baseline protocol alone
// on an ls144-baselines trace, then the sweep, in one child).
func (r *runner) shared(seed int64, probeTime time.Duration, w *workloadReport) map[string]float64 {
	w.Attempted++
	out, err := r.probes(probeTime, seed)
	if err != nil {
		w.fail("probes: %v", err)
		out = probeValues{}
	}
	baselines, _ := cellByName("ls144-baselines")
	w.Attempted++
	solo, err := r.cell(baselines, subSeed(seed, 0), false, true)
	if err == nil {
		err = solo.check()
	}
	if err != nil {
		w.fail("protocols probe: %v", err)
		return out
	}
	var sum float64
	for i, p := range baselines.protocols {
		out["protocols."+p+".wall_s"] = solo.SoloWallS[i]
		sum += solo.SoloWallS[i]
	}
	// Two workers: a perfect pool halves the serial time.
	out["experiments.runmany_efficiency"] = sum / (2 * solo.WallS)
	return out
}

func one(unit string, v float64) measured {
	return measured{Unit: unit, summary: summarize([]float64{v})}
}

// endToEndOf reduces the untraced repetitions to the seven end-to-end
// metrics. Host-time metrics are medians over every repetition. The sim.*
// values are exact per seed: they pool the first repetition of each
// sub-seed (flow-weighted mean slowdown, bytes over bytes, and the mean of
// the per-trace short-flow p99s) and so have no spread.
func endToEndOf(reps, first []*runResult) map[string]measured {
	col := func(f func(*runResult) float64) summary {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return summarize(xs)
	}
	host := map[string]summary{
		"setup_s":     col(func(r *runResult) float64 { return r.SetupS }),
		"wall_s":      col(func(r *runResult) float64 { return r.WallS }),
		"pkts_per_s":  col(func(r *runResult) float64 { return float64(r.Data+r.Ctrl) / r.WallS }),
		"peak_rss_mb": col(func(r *runResult) float64 { return r.PeakRSSMB }),
	}
	var p99, slowdowns, records, delivered, offered float64
	for _, r := range first {
		p99 += r.ShortP99 / float64(len(first))
		slowdowns += r.MeanSlowdown * float64(r.Records)
		records += float64(r.Records)
		delivered += float64(r.DeliveredB)
		offered += float64(r.OfferedB)
	}
	sim := map[string]float64{
		"sim.short_p99_slowdown": p99,
		"sim.mean_slowdown":      slowdowns / records,
		"sim.goodput_frac":       delivered / offered,
	}
	out := make(map[string]measured, len(endToEnd))
	for _, d := range endToEnd {
		if s, ok := host[d.Name]; ok {
			out[d.Name] = measured{Unit: d.Unit, summary: s}
		} else {
			out[d.Name] = one(d.Unit, sim[d.Name])
		}
	}
	return out
}

// perLayerOf assembles every per-layer metric of one workload from its
// traced repetitions (one per sub-seed: counts are summed, CPU shares
// weighted by profile time), the untraced median wall_s, the wall_s of
// the serial twin (0 if the cell has none) and the shared probe values.
func perLayerOf(traced []*runResult, untracedWall, twinWall float64, shared map[string]float64) map[string]measured {
	var t runResult // the traced repetitions, summed
	cpu := map[string]float64{}
	var cpuTotal float64
	var walls, wires []float64
	var shardSum, shardMax float64
	for _, r := range traced {
		t.Events += r.Events
		t.Data += r.Data
		t.Ctrl += r.Ctrl
		t.Drops += r.Drops
		t.Trims += r.Trims
		t.ECNMarks += r.ECNMarks
		t.Epochs += r.Epochs
		t.Skipped += r.Skipped
		t.Staged += r.Staged
		t.Mallocs += r.Mallocs
		t.AllocBytes += r.AllocBytes
		t.GCCycles += r.GCCycles
		t.WallS += r.WallS
		for layer, s := range r.CPUSeconds {
			cpu[layer] += s
			cpuTotal += s
		}
		walls = append(walls, r.WallS)
		wires = append(wires, r.WireS)
		var max float64
		for _, e := range r.ShardEvents {
			shardSum += float64(e)
			if float64(e) > max {
				max = float64(e)
			}
		}
		shardMax += max * float64(len(r.ShardEvents))
	}
	shards := float64(len(traced[0].ShardEvents))
	pkts := float64(t.Data + t.Ctrl)

	v := map[string]float64{}
	for k, x := range shared {
		v[k] = x
	}
	v["sim.events"] = float64(t.Events)
	v["sim.events_per_pkt"] = float64(t.Events) / pkts
	v["sim.events_per_s"] = float64(t.Events) / t.WallS
	for layer, name := range cpuShareMetric {
		v[name] = ratio(cpu[layer], cpuTotal)
	}
	v["sim.group.epochs"] = float64(t.Epochs)
	v["sim.group.skipped_frac"] = ratio(float64(t.Skipped), float64(t.Epochs)*shards)
	// Events summed over shards against shards x the busiest shard: the
	// Amdahl ceiling on speedup is shards x balance.
	v["sim.group.shard_balance"] = ratio(shardSum, shardMax)
	v["sim.group.speedup"] = ratio(twinWall, untracedWall)
	v["netsim.shard.staged"] = float64(t.Staged)
	v["netsim.shard.staged_per_epoch"] = ratio(float64(t.Staged), float64(t.Epochs))

	v["netsim.pkts.data"] = float64(t.Data)
	v["netsim.pkts.ctrl"] = float64(t.Ctrl)
	v["netsim.drops"] = float64(t.Drops)
	v["netsim.trims"] = float64(t.Trims)
	v["netsim.ecn_marks"] = float64(t.ECNMarks)

	v["core.ns_per_pkt"] = cpu[layerCore] * 1e9 / pkts
	v["core.ctrl_per_data_pkt"] = float64(t.Ctrl) / float64(t.Data)
	v["experiments.wire_s"] = summarize(wires).Median

	v["runtime.mallocs_per_pkt"] = float64(t.Mallocs) / pkts
	v["runtime.alloc_bytes_per_pkt"] = float64(t.AllocBytes) / pkts
	v["runtime.gc_cycles"] = float64(t.GCCycles)
	v["trace.overhead_pct"] = (summarize(walls).Median/untracedWall - 1) * 100

	out := make(map[string]measured, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = one(d.Unit, v[d.Name])
	}
	return out
}

// ratio is a/b, or 0 where the denominator is 0: the quantity is not
// defined on this workload (no epochs on a serial run, no serial twin).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
