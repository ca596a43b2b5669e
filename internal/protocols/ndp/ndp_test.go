package ndp

import (
	"testing"

	"dcpim/internal/netsim"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

func runNDP(t *testing.T, tr *workload.Trace, horizon sim.Duration, seed int64) (*stats.Collector, *netsim.Fabric) {
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

func TestUnloadedShortFlow(t *testing.T) {
	tr := &workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 0, Dst: 7, Size: 10_000, Arrival: 0},
	}}
	col, fab := runNDP(t, tr, 300*sim.Microsecond, 1)
	if col.Completed() != 1 {
		t.Fatal("flow not completed")
	}
	if fab.Counters.Trims != 0 {
		t.Fatal("unloaded flow was trimmed")
	}
	if sd := col.Records()[0].Slowdown(); sd > 1.25 {
		t.Fatalf("unloaded slowdown %.3f", sd)
	}
}

func TestUnloadedLongFlowPullClocked(t *testing.T) {
	tr := &workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 0, Dst: 7, Size: 2_000_000, Arrival: 0},
	}}
	col, _ := runNDP(t, tr, 3*sim.Millisecond, 2)
	if col.Completed() != 1 {
		t.Fatal("long flow not completed")
	}
	if sd := col.Records()[0].Slowdown(); sd > 1.5 {
		t.Fatalf("unloaded long flow slowdown %.3f", sd)
	}
}

func TestIncastTrimsAndRecovers(t *testing.T) {
	// NDP's signature behaviour: under incast the 8-packet queues trim
	// aggressively, and every trimmed packet is retransmitted via
	// NACK+pull; all flows complete with zero full-packet losses.
	var flows []workload.Flow
	for src := 1; src < 8; src++ {
		flows = append(flows, workload.Flow{ID: uint64(src), Src: src, Dst: 0, Size: 150_000, Arrival: 0})
	}
	col, fab := runNDP(t, &workload.Trace{Flows: flows}, 10*sim.Millisecond, 3)
	if fab.Counters.Trims == 0 {
		t.Fatal("test premise: incast did not trim")
	}
	if col.Completed() != 7 {
		t.Fatalf("completed %d/7 after trims", col.Completed())
	}
	// Delivered payload is exactly the offered bytes (no double count).
	if col.DeliveredBytes() != 7*150_000 {
		t.Fatalf("delivered %d bytes, want %d", col.DeliveredBytes(), 7*150_000)
	}
}

func TestAllToAllCompletes(t *testing.T) {
	cfgT := topo.SmallLeafSpine()
	tr := workload.AllToAllConfig{
		Hosts: 8, HostRate: cfgT.HostRate, Load: 0.5,
		Dist: workload.IMC10(), Horizon: sim.Millisecond, Seed: 4,
	}.Generate()
	col, _ := runNDP(t, tr, 5*sim.Millisecond, 4)
	if col.Completed() < int64(len(tr.Flows))*95/100 {
		t.Fatalf("completed %d/%d", col.Completed(), len(tr.Flows))
	}
}

func TestDeterminism(t *testing.T) {
	cfgT := topo.SmallLeafSpine()
	mk := func() *workload.Trace {
		return workload.AllToAllConfig{
			Hosts: 8, HostRate: cfgT.HostRate, Load: 0.6,
			Dist: workload.WebSearch(), Horizon: 500 * sim.Microsecond, Seed: 6,
		}.Generate()
	}
	c1, f1 := runNDP(t, mk(), 2*sim.Millisecond, 7)
	c2, f2 := runNDP(t, mk(), 2*sim.Millisecond, 7)
	if c1.Completed() != c2.Completed() || f1.Counters.Trims != f2.Counters.Trims {
		t.Fatal("non-deterministic NDP run")
	}
}
