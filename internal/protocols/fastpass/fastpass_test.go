package fastpass

import (
	"testing"

	"dcpim/internal/netsim"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

func runFastpass(t *testing.T, tr *workload.Trace, horizon sim.Duration, seed int64) (*stats.Collector, *netsim.Fabric) {
	t.Helper()
	eng := sim.NewEngine(seed)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, FabricConfig())
	col := stats.NewCollector()
	Attach(fab, col)
	fab.Start()
	fab.Inject(tr)
	eng.Run(sim.Time(horizon))
	return col, fab
}

// The §5 structural property: even an unloaded short flow pays a round
// trip through the arbiter before transmission, so its slowdown is
// bounded away from 1 (the paper cites ≥ 2× optimal).
func TestShortFlowPaysArbiterRTT(t *testing.T) {
	tr := &workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 3, Dst: 7, Size: 5_000, Arrival: sim.Time(20 * sim.Microsecond)},
	}}
	col, _ := runFastpass(t, tr, 500*sim.Microsecond, 1)
	if col.Completed() != 1 {
		t.Fatal("flow not completed")
	}
	sd := col.Records()[0].Slowdown()
	if sd < 1.8 {
		t.Fatalf("unloaded Fastpass short flow slowdown %.2f — the arbiter RTT should cost ≥ ~2x", sd)
	}
	if sd > 8 {
		t.Fatalf("unloaded slowdown %.2f absurdly high", sd)
	}
}

func TestLongFlowCompletes(t *testing.T) {
	tr := &workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 1, Dst: 6, Size: 2_000_000, Arrival: 0},
	}}
	col, _ := runFastpass(t, tr, 5*sim.Millisecond, 2)
	if col.Completed() != 1 {
		t.Fatal("long flow not completed")
	}
	// Allocation batches pipeline: throughput near line rate once running.
	if sd := col.Records()[0].Slowdown(); sd > 2 {
		t.Fatalf("long flow slowdown %.2f", sd)
	}
}

// Conflict-freedom: the arbiter never allocates two senders into one
// receiver in the same batch, so queues barely form and nothing drops.
func TestIncastStaysQueueless(t *testing.T) {
	var flows []workload.Flow
	for src := 1; src < 8; src++ {
		flows = append(flows, workload.Flow{ID: uint64(src), Src: src, Dst: 0, Size: 150_000, Arrival: 0})
	}
	col, fab := runFastpass(t, &workload.Trace{Flows: flows}, 10*sim.Millisecond, 3)
	if col.Completed() != 7 {
		t.Fatalf("completed %d/7", col.Completed())
	}
	if fab.Counters.DataDrops != 0 {
		t.Fatalf("drops = %d under centralized scheduling", fab.Counters.DataDrops)
	}
	// Max queue stays near one batch of packets, not an incast pileup.
	if max := fab.MaxPortQueue(); max > 20*1500 {
		t.Fatalf("max port queue %d — centralized allocations should stay queueless", max)
	}
}

func TestAllToAll(t *testing.T) {
	cfgT := topo.SmallLeafSpine()
	tr := workload.AllToAllConfig{
		Hosts: 8, HostRate: cfgT.HostRate, Load: 0.4,
		Dist: workload.IMC10(), Horizon: sim.Millisecond, Seed: 4,
	}.Generate()
	col, _ := runFastpass(t, tr, 6*sim.Millisecond, 4)
	if col.Completed() < int64(len(tr.Flows))*90/100 {
		t.Fatalf("completed %d/%d", col.Completed(), len(tr.Flows))
	}
}

func TestDeterminism(t *testing.T) {
	cfgT := topo.SmallLeafSpine()
	mk := func() *workload.Trace {
		return workload.AllToAllConfig{
			Hosts: 8, HostRate: cfgT.HostRate, Load: 0.4,
			Dist: workload.IMC10(), Horizon: 500 * sim.Microsecond, Seed: 5,
		}.Generate()
	}
	a, _ := runFastpass(t, mk(), 3*sim.Millisecond, 6)
	b, _ := runFastpass(t, mk(), 3*sim.Millisecond, 6)
	if a.Completed() != b.Completed() || a.DeliveredBytes() != b.DeliveredBytes() {
		t.Fatal("non-deterministic fastpass run")
	}
}
