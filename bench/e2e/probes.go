package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dcpim/internal/experiments"
	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// Probes time calls into one layer's public functions in isolation. They
// explain an end-to-end number; they never justify one. Each takes about
// d of host time and reports a median over batches.

// probeValues is what the probe child reports: metric name -> value.
type probeValues map[string]float64

// runProbes runs every probe. scratch is a directory the checkpoint probe
// may write snapshot files into; it is emptied afterwards.
func runProbes(d time.Duration, seed int64, scratch string) (probeValues, error) {
	v := probeValues{}
	for _, p := range []struct {
		suffix  string
		pending int
	}{{"p3k", 3000}, {"p20k", 20000}, {"p150k", 150000}} {
		v["sim.queue.hold_ns."+p.suffix] = probeHold(d, seed, p.pending)
	}
	v["sim.queue.cancel_ns.p3k"] = probeCancel(d, seed, 3000)
	v["sim.group.epoch_ns.busy2"] = probeGroupEpoch(d)
	probeForwarding(d, v)
	probeSetup(d, seed, v)
	if err := probeObservation(d, seed, scratch, v); err != nil {
		return nil, err
	}
	return v, nil
}

// batches calls batch (ops operations each) for about d and returns the
// median nanoseconds per operation over the batches.
func batches(d time.Duration, ops int, batch func()) float64 {
	var per []float64
	for start := time.Now(); len(per) < 5 || time.Since(start) < d; {
		t0 := time.Now()
		batch()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(ops))
	}
	return summarize(per).Median
}

// holdDelay is the dcPIM-shaped delay mix of the repo's EngineHold
// microbenchmarks: mostly sub-microsecond serialization and control
// timers, one in sixteen an epoch-scale timer.
func holdDelay(eng *sim.Engine) sim.Duration {
	rng := eng.Rand()
	if rng.Intn(16) == 0 {
		return sim.Duration(1 + rng.Int63n(int64(40*sim.Microsecond)))
	}
	return sim.Duration(1 + rng.Int63n(int64(800*sim.Nanosecond)))
}

// holdEngine returns an engine holding a steady population of pending
// events: each executed event schedules its replacement.
func holdEngine(seed int64, pending int) *sim.Engine {
	eng := sim.NewEngine(seed)
	var hold func()
	hold = func() { eng.After(holdDelay(eng), hold) }
	for i := 0; i < pending; i++ {
		eng.After(holdDelay(eng), hold)
	}
	for i := 0; i < pending; i++ { // reach the steady-state time spread
		eng.Step()
	}
	return eng
}

// probeHold is the hold model at a fixed pending depth: ns per Step, each
// of which pops one event and schedules one.
func probeHold(d time.Duration, seed int64, pending int) float64 {
	eng := holdEngine(seed, pending)
	const ops = 20000
	return batches(d, ops, func() {
		for i := 0; i < ops; i++ {
			if !eng.Step() {
				panic("hold population drained")
			}
		}
	})
}

// probeCancel times schedule + Timer.Cancel against a standing population.
func probeCancel(d time.Duration, seed int64, pending int) float64 {
	eng := holdEngine(seed, pending)
	nop := func() {}
	const ops = 20000
	return batches(d, ops, func() {
		for i := 0; i < ops; i++ {
			eng.After(holdDelay(eng), nop).Cancel()
		}
	})
}

// probeGroupEpoch times one RunEpoch of a 2-engine group in which both
// engines execute exactly one event: a full barrier crossing.
func probeGroupEpoch(d time.Duration) float64 {
	const step = sim.Microsecond
	engines := make([]*sim.Engine, 2)
	for i := range engines {
		eng := sim.NewEngine(int64(i + 1))
		var tick func()
		tick = func() { eng.After(step, tick) }
		eng.After(step, tick)
		engines[i] = eng
	}
	g := sim.NewGroup(engines)
	defer g.Close()
	until := sim.Time(0)
	const ops = 2000
	return batches(d, ops, func() {
		for i := 0; i < ops; i++ {
			until = until.Add(step)
			g.RunEpoch(until)
		}
	})
}

type nopProto struct{}

func (nopProto) Start(*netsim.Host)          {}
func (nopProto) OnFlowArrival(workload.Flow) {}
func (nopProto) OnPacket(*packet.Packet)     {}

// forwarder is a leaf-spine fabric with no-op protocols, driven with
// cross-rack packets in bursts so that queues build and drain.
type forwarder struct {
	eng   *sim.Engine
	fab   *netsim.Fabric
	hosts int
	next  int
}

const forwardBurst = 64

func newForwarder(observers int) *forwarder {
	eng := sim.NewEngine(1)
	tp := topo.DefaultLeafSpine().Build()
	fab := netsim.New(eng, tp, netsim.Config{Spray: true})
	for i := 0; i < tp.NumHosts; i++ {
		fab.AttachProtocol(i, nopProto{})
	}
	nopHost := func(int, *packet.Packet) {}
	nopPkt := func(*packet.Packet) {}
	for i := 0; i < observers; i++ {
		fab.AddObserver(netsim.ObserverFuncs{
			Injected: nopHost, Delivered: nopHost, Dropped: nopPkt, Trimmed: nopPkt,
		})
	}
	fab.Start()
	return &forwarder{eng: eng, fab: fab, hosts: tp.NumHosts}
}

// send injects one burst; the destination is half the fabric away, so
// every packet crosses the spine.
func (f *forwarder) send(ctrl bool) {
	for i := 0; i < forwardBurst; i++ {
		src := f.next % f.hosts
		dst := (src + f.hosts/2) % f.hosts
		flow := uint64(f.next)
		f.next++
		if ctrl {
			f.fab.Host(src).Send(packet.NewControl(packet.Token, src, dst, flow))
		} else {
			f.fab.Host(src).Send(packet.NewData(src, dst, flow, 0, packet.MTU, packet.PrioShort))
		}
	}
}

func (f *forwarder) burst(ctrl bool) {
	f.send(ctrl)
	f.eng.RunAll()
}

func probeForwarding(d time.Duration, v probeValues) {
	const bursts = 16
	const ops = bursts * forwardBurst
	run := func(f *forwarder, ctrl bool) func() {
		return func() {
			for i := 0; i < bursts; i++ {
				f.burst(ctrl)
			}
		}
	}
	bare := newForwarder(0)
	v["netsim.forward.ns_per_pkt.mtu"] = batches(d, ops, run(bare, false))
	v["netsim.forward.ns_per_pkt.ctrl"] = batches(d, ops, run(bare, true))

	// Observer cost: the same loop on a fabric with four no-op observers,
	// minus a fresh measurement of the bare one taken alongside it.
	observed := newForwarder(4)
	var with, without []float64
	for start := time.Now(); len(with) < 5 || time.Since(start) < d; {
		with = append(with, batches(0, ops, run(observed, false)))
		without = append(without, batches(0, ops, run(bare, false)))
	}
	v["netsim.observer.ns_per_pkt"] = summarize(with).Median - summarize(without).Median

	// Counts, on a warm fabric: mallocs and engine events per packet.
	const n = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		bare.burst(false)
	}
	runtime.ReadMemStats(&m1)
	v["netsim.forward.allocs_per_pkt"] = float64(m1.Mallocs-m0.Mallocs) / (n * forwardBurst)
	events := 0
	for i := 0; i < n; i++ {
		bare.send(false)
		for bare.eng.Step() {
			events++
		}
	}
	v["netsim.forward.events_per_pkt"] = float64(events) / (n * forwardBurst)
}

// probeSetup times the set-up layers alone: topology build and partition
// at 8192 hosts, trace generation, and slowdown summarisation.
func probeSetup(d time.Duration, seed int64, v probeValues) {
	var big *topo.Topology
	v["topo.build_ms"] = batches(d, 1, func() { big = topo.HyperscaleFatTree().Build() }) / 1e6
	v["topo.partition_ms"] = batches(d, 1, func() {
		if _, err := topo.MakePartition(big, 2); err != nil {
			panic(err)
		}
	}) / 1e6

	tp := topo.DefaultLeafSpine().Build()
	cfg := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: load,
		Dist: workload.IMC10(), Horizon: sim.Millisecond, Seed: seed,
	}
	var tr *workload.Trace
	v["workload.gen_ns_per_flow"] = batches(d, 1, func() { tr = cfg.Generate() }) / float64(len(tr.Flows))

	// Synthetic completion records over the same flows: Summarize only
	// reads sizes and times.
	records := make([]stats.FlowRecord, len(tr.Flows))
	for i, fl := range tr.Flows {
		opt := sim.Microsecond + sim.Duration(fl.Size)*80
		records[i] = stats.FlowRecord{
			ID: fl.ID, Src: int32(fl.Src), Dst: int32(fl.Dst), Size: fl.Size,
			Arrival: fl.Arrival, Finish: fl.Arrival.Add(opt + opt/sim.Duration(2+i%7)), Optimal: opt,
		}
	}
	v["stats.summarize_ns_per_record"] = batches(d, 1, func() { stats.Summarize(records, nil) }) / float64(len(records))
}

// probeObservation prices the two observation paths no workload turns on:
// the metrics sampler and checkpoint capture, on the k=8 FatTree. The
// horizon is the longest that lets three alternating triples of runs fit
// the few seconds a per-layer invocation can spend here.
func probeObservation(d time.Duration, seed int64, scratch string, v probeValues) error {
	const horizon = 60 * sim.Microsecond
	const snapshots = 64
	tp := topo.FatTreeK(8).Build()
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: load,
		Dist: workload.IMC10(), Horizon: horizon, Seed: seed,
	}.Generate()
	base := experiments.RunSpec{
		Protocol: experiments.DCPIM, Topo: tp, Trace: tr,
		Horizon: horizon + horizon/2, Seed: seed,
	}
	sampled, snapped := base, base
	sampled.Metrics = &experiments.MetricsSpec{}
	snapped.Checkpoint = &experiments.CheckpointSpec{Every: base.Horizon / snapshots}
	wall := func(s experiments.RunSpec) float64 {
		t0 := time.Now()
		experiments.Run(s)
		return time.Since(t0).Seconds()
	}
	// Alternating triples, so drift in the host's speed hits all alike.
	var plain, withMetrics, withSnaps []float64
	for start := time.Now(); len(plain) < 3 || time.Since(start) < 3*d; {
		plain = append(plain, wall(base))
		withMetrics = append(withMetrics, wall(sampled))
		withSnaps = append(withSnaps, wall(snapped))
	}
	p := summarize(plain).Median
	v["metrics.sample_overhead_pct"] = (summarize(withMetrics).Median/p - 1) * 100
	v["checkpoint.capture_ms"] = (summarize(withSnaps).Median - p) * 1e3 / snapshots

	dir := filepath.Join(scratch, "ckpt-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snapped.Checkpoint = &experiments.CheckpointSpec{Every: base.Horizon / snapshots, Dir: dir, Label: "probe"}
	experiments.Run(snapped)
	files, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var bytes int64
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			return err
		}
		bytes += info.Size()
	}
	if len(files) == 0 {
		return fmt.Errorf("checkpoint probe: no snapshot files in %s", dir)
	}
	v["checkpoint.snapshot_kb"] = float64(bytes) / float64(len(files)) / 1024
	return nil
}
