package hpcc

import (
	"testing"

	"dcpim/internal/protocols/flowtrack"

	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

func runHPCC(t *testing.T, tr *workload.Trace, horizon sim.Duration, seed int64) (*stats.Collector, *netsim.Fabric) {
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
	col, _ := runHPCC(t, tr, 300*sim.Microsecond, 1)
	if col.Completed() != 1 {
		t.Fatal("flow not completed")
	}
	// HPCC starts at a full BDP window: an unloaded short flow finishes
	// at line rate.
	if sd := col.Records()[0].Slowdown(); sd > 1.25 {
		t.Fatalf("unloaded slowdown %.3f", sd)
	}
}

func TestUnloadedLongFlowSustainsWindow(t *testing.T) {
	tr := &workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 0, Dst: 7, Size: 3_000_000, Arrival: 0},
	}}
	col, fab := runHPCC(t, tr, 3*sim.Millisecond, 2)
	if col.Completed() != 1 {
		t.Fatal("long flow not completed")
	}
	if fab.Counters.DataDrops != 0 {
		t.Fatal("drops under PFC")
	}
	// An unloaded path holds U ≈ η: the flow keeps ≈ η of line rate.
	if sd := col.Records()[0].Slowdown(); sd > 1.35 {
		t.Fatalf("unloaded long flow slowdown %.3f (window collapsed?)", sd)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	// Two long flows into one receiver: each should converge near half
	// rate; completion times within 30% of each other.
	tr := &workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 1, Dst: 0, Size: 2_000_000, Arrival: 0},
		{ID: 2, Src: 2, Dst: 0, Size: 2_000_000, Arrival: 0},
	}}
	col, fab := runHPCC(t, tr, 10*sim.Millisecond, 3)
	if col.Completed() != 2 {
		t.Fatalf("completed %d/2", col.Completed())
	}
	if fab.Counters.DataDrops != 0 {
		t.Fatal("drops under PFC")
	}
	a, b := col.Records()[0].FCT().Seconds(), col.Records()[1].FCT().Seconds()
	ratio := a / b
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if ratio > 1.3 {
		t.Fatalf("unfair share: FCTs %.1fus vs %.1fus", a*1e6, b*1e6)
	}
}

func TestIncastTriggersPFC(t *testing.T) {
	// HPCC's documented weakness: incast fills the downlink queue until
	// PFC pauses upstream — no drops, but pauses fire.
	var flows []workload.Flow
	for src := 1; src < 8; src++ {
		flows = append(flows, workload.Flow{ID: uint64(src), Src: src, Dst: 0, Size: 500_000, Arrival: 0})
	}
	// Tighter watermarks than the deployment defaults so the 7:1 burst
	// reliably crosses them — this exercises the pause/resume machinery.
	eng := sim.NewEngine(4)
	tp := topo.SmallLeafSpine().Build()
	fc := FabricConfig()
	fc.PFCPause = 40 << 10
	fc.PFCResume = 20 << 10
	fab := netsim.New(eng, tp, fc)
	col := stats.NewCollector()
	Attach(fab, col)
	fab.Start()
	fab.Inject(&workload.Trace{Flows: flows})
	eng.Run(sim.Time(10 * sim.Millisecond))
	if fab.Counters.DataDrops != 0 {
		t.Fatal("drops despite PFC")
	}
	if fab.Counters.PFCPauses == 0 {
		t.Fatal("hard incast did not trigger PFC")
	}
	if col.Completed() != 7 {
		t.Fatalf("completed %d/7", col.Completed())
	}
}

func TestWindowReactsToCongestion(t *testing.T) {
	// Direct unit test of the update rule: high measured utilization
	// shrinks the window below the reference; low utilization grows it.
	p := newProto(stats.NewCollector())
	p.bdp = 72_500
	p.baseRTT = 6 * sim.Microsecond
	f := &txState{Tx: mkTx(1), w: 72_500, wc: 72_500}
	p.computeWind(f, 1.9, true) // U = 2η: halve
	if f.w > 0.6*72_500+float64(packet.MTU) {
		t.Fatalf("window after U=1.9: %.0f, want ≈ halved", f.w)
	}
	f2 := &txState{Tx: mkTx(2), w: 40_000, wc: 40_000}
	p.computeWind(f2, 0.3, true) // far below η: additive probe
	if f2.w <= 40_000 {
		t.Fatalf("window did not grow at low U: %.0f", f2.w)
	}
	// After maxStage probes, multiplicative alignment kicks in even at
	// low U (fast ramp): W = Wc/(U/η) ≫ Wc.
	f2.incStage = maxStage
	p.computeWind(f2, 0.3, true)
	if f2.w < 1.5*40_000 {
		t.Fatalf("MI ramp missing: %.0f", f2.w)
	}
}

func TestDeterminism(t *testing.T) {
	cfgT := topo.SmallLeafSpine()
	mk := func() *workload.Trace {
		return workload.AllToAllConfig{
			Hosts: 8, HostRate: cfgT.HostRate, Load: 0.5,
			Dist: workload.WebSearch(), Horizon: 500 * sim.Microsecond, Seed: 6,
		}.Generate()
	}
	c1, _ := runHPCC(t, mk(), 3*sim.Millisecond, 7)
	c2, _ := runHPCC(t, mk(), 3*sim.Millisecond, 7)
	if c1.Completed() != c2.Completed() || c1.DeliveredBytes() != c2.DeliveredBytes() {
		t.Fatal("non-deterministic HPCC run")
	}
	if c1.Completed() == 0 {
		t.Fatal("nothing completed")
	}
}

// mkTx builds sender flow state for unit tests.
func mkTx(id uint64) *flowtrack.Tx { return flowtrack.NewTx(id, 0, 1<<20, 0) }
