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
	g := matching.RandomGraph(rng, 144, 144, 4)
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
	g := matching.RandomGraph(rng, 144, 144, 4)
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

// TestForwardingAllocs pins the hot-path allocation budget: once the event
// free list and packet pool are warm, forwarding a packet through the
// fabric (NIC, two or three switch hops, delivery) must not allocate. The
// budget of 1/16 alloc per packet leaves room only for amortized queue
// growth.
func TestForwardingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts unstable")
	}
	eng := sim.NewEngine(1)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, netsim.Config{Spray: true})
	for i := 0; i < tp.NumHosts; i++ {
		fab.AttachProtocol(i, nopProto{})
	}
	fab.Start()
	seq := 0
	batch := func() {
		for i := 0; i < 64; i++ {
			src := seq % 8
			dst := (seq + 1) % 8
			fab.Host(src).Send(packet.NewData(src, dst, uint64(seq), 0, packet.MTU, packet.PrioShort))
			seq++
		}
		eng.RunAll()
	}
	// Warm the pools: the first batches grow the heap, the heap backing
	// array, per-port queues and the packet pool.
	for i := 0; i < 16; i++ {
		batch()
	}
	perBatch := testing.AllocsPerRun(50, batch)
	if perPacket := perBatch / 64; perPacket > 1.0/16 {
		t.Fatalf("forwarding allocates %.3f allocs/packet (%.1f per 64-packet batch), want ~0",
			perPacket, perBatch)
	}
}

// TestMetricsDisabledAllocs pins the telemetry layer's zero-cost-off
// guarantee: with an uninstrumented collector (fab.RegisterMetrics on a
// collector without EnableInstruments, and zero Counters everywhere),
// the observer fan-out and the no-op instrument calls must leave the
// forwarding hot path at its 0-alloc budget.
func TestMetricsDisabledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; alloc counts unstable")
	}
	eng := sim.NewEngine(1)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, netsim.Config{Spray: true})
	fab.RegisterMetrics(stats.NewCollector()) // uninstrumented: must register nothing
	for i := 0; i < tp.NumHosts; i++ {
		fab.AttachProtocol(i, nopProto{})
	}
	fab.Start()
	seq := 0
	batch := func() {
		for i := 0; i < 64; i++ {
			src := seq % 8
			dst := (seq + 1) % 8
			fab.Host(src).Send(packet.NewData(src, dst, uint64(seq), 0, packet.MTU, packet.PrioShort))
			seq++
		}
		eng.RunAll()
	}
	for i := 0; i < 16; i++ {
		batch()
	}
	perBatch := testing.AllocsPerRun(50, batch)
	if perPacket := perBatch / 64; perPacket > 1.0/16 {
		t.Fatalf("disabled metrics allocate %.3f allocs/packet (%.1f per 64-packet batch), want ~0",
			perPacket, perBatch)
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
