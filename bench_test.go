// Benchmarks: one per paper artifact (Table 1 setup cost, Figures 3–7,
// Theorem 1) plus microbenchmarks of the substrate. Each figure bench
// runs its experiment end-to-end at reduced scale, so `go test -bench=.`
// regenerates a quick version of the whole evaluation; use
// cmd/experiments for full fidelity.
package main

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"dcpim/internal/core"
	"dcpim/internal/experiments"
	"dcpim/internal/matching"
	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// benchOpts shrinks experiments to benchmark-friendly scale.
func benchOpts() experiments.Options {
	return experiments.Options{Seed: 1, Scale: 0.05, Hosts: 8}
}

func benchExperiment(b *testing.B, id string, opt experiments.Options) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Seed = int64(i + 1)
		if err := e.Run(opt, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Theorem 1 ----

func BenchmarkTheorem1(b *testing.B) { benchExperiment(b, "theorem1", benchOpts()) }

// ---- Figure 3 ----

func BenchmarkFig3aMaxLoad(b *testing.B)       { benchExperiment(b, "fig3a", benchOpts()) }
func BenchmarkFig3bMeanSlowdown(b *testing.B)  { benchExperiment(b, "fig3b", benchOpts()) }
func BenchmarkFig3cdeSizeBuckets(b *testing.B) { benchExperiment(b, "fig3cde", benchOpts()) }

// ---- Figure 4 ----

func BenchmarkFig4aBurstyMicrobench(b *testing.B) {
	o := benchOpts()
	o.Hosts = 0 // needs ≥3 racks
	o.Scale = 0.15
	benchExperiment(b, "fig4a", o)
}

func BenchmarkFig4bWorstCaseBDP1(b *testing.B) { benchExperiment(b, "fig4b", benchOpts()) }
func BenchmarkFig4cDenseTM(b *testing.B)       { benchExperiment(b, "fig4c", benchOpts()) }

// ---- Figure 5 ----

func BenchmarkFig5abOversubscribed(b *testing.B) { benchExperiment(b, "fig5ab", benchOpts()) }
func BenchmarkFig5cdFatTree(b *testing.B)        { benchExperiment(b, "fig5cd", benchOpts()) }

// ---- Figure 6 ----

func BenchmarkFig6Sensitivity(b *testing.B) { benchExperiment(b, "fig6", benchOpts()) }

// ---- Figure 7 ----

func BenchmarkFig7Testbed(b *testing.B) {
	o := benchOpts()
	o.Scale = 0.02
	benchExperiment(b, "fig7", o)
}

// ---- §5 and ablations ----

func BenchmarkFastpassComparison(b *testing.B) { benchExperiment(b, "fastpass", benchOpts()) }
func BenchmarkAblations(b *testing.B)          { benchExperiment(b, "ablation", benchOpts()) }

// ---- Substrate microbenchmarks ----

// BenchmarkPIMMatching measures the abstract matching algorithm at the
// paper's scale (144 hosts, sparse) through the matcher registry.
func BenchmarkPIMMatching(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	g := matching.SparseRandomGraph(rng, 144, 144, 4)
	m, err := matching.MustLookup("dcpim").New(matching.Options{Rounds: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(g, rng)
	}
}

// BenchmarkChannelMatching measures the k-channel variant.
func BenchmarkChannelMatching(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	g := matching.SparseRandomGraph(rng, 144, 144, 4)
	m, err := matching.MustLookup("dcpim-k").New(matching.Options{Rounds: 4, K: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(g, rng)
	}
}

// BenchmarkFabricForwarding measures raw fabric throughput: packets per
// second the simulator pushes through a loaded leaf-spine.
func BenchmarkFabricForwarding(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine(1)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, netsim.Config{Spray: true})
	for i := 0; i < tp.NumHosts; i++ {
		fab.AttachProtocol(i, nopProto{})
	}
	fab.Start()
	b.ResetTimer()
	sent := 0
	for i := 0; i < b.N; i++ {
		src := i % 8
		dst := (i + 1) % 8
		fab.Host(src).Send(packet.NewData(src, dst, uint64(i), 0, packet.MTU, packet.PrioShort))
		sent++
		if sent%64 == 0 {
			eng.RunAll()
		}
	}
	eng.RunAll()
}

type nopProto struct{}

func (nopProto) Start(*netsim.Host)          {}
func (nopProto) OnFlowArrival(workload.Flow) {}
func (nopProto) OnPacket(*packet.Packet)     {}

// countProto counts what the fabric delivers to one host: every packet,
// and those that carry INT hops.
type countProto struct{ delivered, withINT int64 }

func (*countProto) Start(*netsim.Host)          {}
func (*countProto) OnFlowArrival(workload.Flow) {}
func (c *countProto) OnPacket(p *packet.Packet) {
	c.delivered++
	if len(p.INT()) > 0 {
		c.withINT++
	}
}

// TestForwardingAllocs pins the per-packet allocation budget of the
// fabric, one row per path a packet can take: once the event free lists,
// lane block pools, port queues, staging logs and packet pool are warm,
// forwarding a packet (NIC, three switch hops, delivery) must not
// allocate. The budget of 1/16 alloc per packet leaves room only for
// amortized growth.
//
// Each row runs the fabric the way experiments do, through Fabric.Run, so
// every batch also crosses Group.RunEpoch and Engine.Run. Every row but
// incast sends each packet to the same slot in the other rack; incast
// sends every host's packets to host 0, which queues them at its ToR.
// Each row's seen reads a count that grows only when the row's path
// runs, and it must grow while the allocations are measured.
//
// The rows hold the allocation-free contracts of the fabric's event
// handlers (hostEnqueue, arriveAtHost, hostDeliver, arriveAtSwitch,
// swForward, portTxDone) and of the engine calls they make (Lane.After,
// Lane.Arrive, Engine.AfterFunc, Engine.ScheduleReserved,
// Engine.ScheduleArrival, Engine.Run, Group.RunEpoch): DESIGN.md §12
// maps each to the rows that reach it.
func TestForwardingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts unstable")
	}
	type row struct {
		name    string
		topo    topo.LeafSpineConfig
		shards  int
		cfg     netsim.Config
		metrics bool  // register an uninstrumented collector
		incast  bool  // every packet to host 0
		prio    uint8 // data priority
		intHops bool  // collect INT at every hop
		seen    func(*netsim.Fabric, []countProto) int64
	}
	delivered := func(_ *netsim.Fabric, hosts []countProto) (n int64) {
		for i := range hosts {
			n += hosts[i].delivered
		}
		return n
	}
	rows := []row{
		// Fused hops: a hop into a switch is one event (hopFused, or
		// hopBoundary on the rack↔spine links), on one shard.
		{name: "fused", seen: delivered},
		// The testbed's 10 Gbps links serialize an MTU slower than a
		// switch traversal, so every hop into a switch is two events: the
		// arrival, and the forward a SwitchDelay later (hopPair).
		{name: "paired-hop", topo: topo.TestbedLeafSpine(), seen: delivered},
		// Two shards: every packet crosses the cut, staged, landed and
		// scheduled on the peer engine in the arrival band.
		{name: "cross-shard", shards: 2, seen: func(f *netsim.Fabric, _ []countProto) (n int64) {
			for _, s := range f.ShardStats() {
				n += int64(s.Staged)
			}
			return n
		}},
		// Watermarks a few packets deep: the incast pauses the ports
		// that feed host 0's ToR, and resumes them as host 0's port
		// drains.
		{name: "pfc", incast: true,
			cfg:  netsim.Config{Spray: true, EnablePFC: true, PFCPause: 4 * packet.MTU, PFCResume: 2 * packet.MTU},
			seen: func(f *netsim.Fabric, _ []countProto) int64 { return f.Counters.PFCResumes }},
		// NDP's dataplane: regular data behind a queue of 8 packets is cut
		// to its header.
		{name: "trim", incast: true, prio: packet.PrioDataHigh,
			cfg:  netsim.Config{Spray: true, TrimThresholdBytes: 8 * packet.MTU},
			seen: func(f *netsim.Fabric, _ []countProto) int64 { return f.Counters.Trims }},
		// HPCC's telemetry: every port a packet leaves appends an INT hop,
		// into the capacity the recycled packet kept.
		{name: "int", intHops: true, seen: func(_ *netsim.Fabric, hosts []countProto) (n int64) {
			for i := range hosts {
				n += hosts[i].withINT
			}
			return n
		}},
		// The telemetry layer costs nothing when off: an uninstrumented
		// collector registers no series, and the forwarding path stays at
		// its budget.
		{name: "metrics-disabled", metrics: true, seen: delivered},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.topo.Racks == 0 {
				r.topo = topo.SmallLeafSpine()
			}
			if r.shards == 0 {
				r.shards = 1
			}
			if r.cfg == (netsim.Config{}) {
				r.cfg = netsim.Config{Spray: true}
			}
			if r.prio == 0 {
				r.prio = packet.PrioShort
			}
			tp := r.topo.Build()
			part, err := topo.MakePartition(tp, r.shards)
			if err != nil {
				t.Fatal(err)
			}
			engines := make([]*sim.Engine, r.shards)
			for i := range engines {
				engines[i] = sim.NewEngine(1)
			}
			grp := sim.NewGroup(engines)
			defer grp.Close()
			fab := netsim.NewSharded(grp, tp, r.cfg, part)
			if r.metrics {
				fab.RegisterMetrics(stats.NewCollector())
			}
			n := tp.NumHosts
			hosts := make([]countProto, n)
			for i := range hosts {
				fab.AttachProtocol(i, &hosts[i])
			}
			fab.Start()
			seq, until := 0, sim.Time(0)
			batch := func() {
				for i := 0; i < 64; i++ {
					src, dst := seq%n, (seq%n+n/2)%n
					if r.incast {
						src, dst = 1+seq%(n-1), 0
					}
					p := packet.NewData(src, dst, uint64(seq), 0, packet.MTU, r.prio)
					p.CollectINT = r.intHops
					fab.Host(src).Send(p)
					seq++
				}
				until = until.Add(100 * sim.Microsecond)
				fab.Run(until)
			}
			// Warm the pools: the first batches grow the heap, the heap
			// backing array, the lane block pools, per-port queues, staging
			// logs and the packet pool.
			for i := 0; i < 16; i++ {
				batch()
			}
			before := r.seen(fab, hosts)
			perBatch := testing.AllocsPerRun(50, batch)
			after := r.seen(fab, hosts)
			t.Logf("%.4f allocs/packet; the row's path count went %d -> %d", perBatch/64, before, after)
			if perPacket := perBatch / 64; perPacket > 1.0/16 {
				t.Errorf("forwarding allocates %.3f allocs/packet (%.1f per 64-packet batch), want ~0",
					perPacket, perBatch)
			}
			if after == before {
				t.Errorf("the measured batches never took the row's path")
			}
			if got := delivered(fab, hosts); got != int64(seq) {
				t.Errorf("delivered %d of %d packets: batches must drain", got, seq)
			}
		})
	}
}

// BenchmarkDcPIMEndToEnd measures full dcPIM simulation cost: simulated
// microseconds per wall second on an 8-host fabric at load 0.6.
func BenchmarkDcPIMEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i + 1))
		tp := topo.SmallLeafSpine().Build()
		fab := netsim.New(eng, tp, netsim.Config{Spray: true})
		col := stats.NewCollector()
		core.Attach(fab, core.DefaultConfig(), col)
		fab.Start()
		tr := workload.AllToAllConfig{
			Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.6,
			Dist: workload.IMC10(), Horizon: 200 * sim.Microsecond, Seed: int64(i),
		}.Generate()
		fab.Inject(tr)
		eng.Run(sim.Time(300 * sim.Microsecond))
	}
}

// BenchmarkFatTreeSharded measures the conservative-parallel engine on
// one big FatTree fabric at 1, 2 and 4 shards — same seed, byte-identical
// results (TestShardedByteIdentity), only wall-clock changes. Full mode
// runs dcPIM on the 128-host k=8 FatTree; -short drops to the 16-host
// k=4 tree. The interesting numbers are the sub-benchmark ratios:
// shards=4 should run the same simulation ≥2× faster than shards=1.
func BenchmarkFatTreeSharded(b *testing.B) {
	cfg := topo.DefaultFatTree()
	cfg.K = 8
	cfg.Name = "fattree-128"
	horizon := 150 * sim.Microsecond
	if testing.Short() {
		cfg = topo.SmallFatTree()
		horizon = 50 * sim.Microsecond
	}
	tp := cfg.Build()
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.6,
		Dist: workload.IMC10(), Horizon: horizon, Seed: 42,
	}.Generate()
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := experiments.Run(experiments.RunSpec{
					Protocol: experiments.DCPIM, Topo: tp, Trace: tr,
					Horizon: horizon + horizon/2, Seed: 99, Shards: shards,
				})
				if res.Col.Completed() == 0 {
					b.Fatal("no flows completed")
				}
			}
		})
	}
}

// BenchmarkWorkloadGeneration measures trace generation throughput.
func BenchmarkWorkloadGeneration(b *testing.B) {
	b.ReportAllocs()
	dist := workload.WebSearch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.AllToAllConfig{
			Hosts: 144, HostRate: 100e9, Load: 0.6,
			Dist: dist, Horizon: 100 * sim.Microsecond, Seed: int64(i),
		}.Generate()
	}
}
