package homa

import (
	"testing"

	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

func runHoma(t *testing.T, cfg Config, tr *workload.Trace, horizon sim.Duration, seed int64) (*stats.Collector, *netsim.Fabric) {
	t.Helper()
	eng := sim.NewEngine(seed)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, cfg.FabricConfig())
	col := stats.NewCollector()
	Attach(fab, cfg, col)
	fab.Start()
	fab.Inject(tr)
	eng.Run(sim.Time(horizon))
	return col, fab
}

func single(size int64) *workload.Trace {
	return &workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 0, Dst: 7, Size: size, Arrival: 0},
	}}
}

func TestUnloadedShortFlow(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), AeolusConfig()} {
		col, _ := runHoma(t, cfg, single(10_000), 300*sim.Microsecond, 1)
		if col.Completed() != 1 {
			t.Fatalf("aeolus=%v: flow not completed", cfg.Aeolus)
		}
		if sd := col.Records()[0].Slowdown(); sd > 1.25 {
			t.Fatalf("aeolus=%v: unloaded slowdown %.3f", cfg.Aeolus, sd)
		}
	}
}

func TestUnloadedLongFlow(t *testing.T) {
	col, _ := runHoma(t, AeolusConfig(), single(2_000_000), 2*sim.Millisecond, 2)
	if col.Completed() != 1 {
		t.Fatal("long flow not completed")
	}
	// Grant-clocked tail after the unscheduled prefix: slowdown should
	// stay near 1 when alone (each grant arrives before the window runs
	// dry).
	if sd := col.Records()[0].Slowdown(); sd > 1.5 {
		t.Fatalf("unloaded long flow slowdown %.3f", sd)
	}
}

func TestPriorityLayouts(t *testing.T) {
	classic := newProto(DefaultConfig(), stats.NewCollector())
	aeolus := newProto(AeolusConfig(), stats.NewCollector())
	// Give both window parameters without a fabric.
	classic.windowPkts = 50
	aeolus.windowPkts = 50
	// Unscheduled rides above scheduled in both modes.
	if classic.unschedPrio(1000) >= classic.schedPrio(0) {
		t.Fatal("classic Homa must send unscheduled above scheduled")
	}
	if aeolus.unschedPrio(1000) >= aeolus.schedPrio(0) {
		t.Fatal("Aeolus keeps unscheduled on top; droppability is the difference")
	}
	// Smaller flows get higher unscheduled priority.
	if classic.unschedPrio(1000) >= classic.unschedPrio(100_000_000) {
		t.Fatal("unscheduled priority not size-graded")
	}
}

func TestAeolusDropsRecovered(t *testing.T) {
	// 7:1 incast of 60 KB flows overwhelms the downlink; Aeolus sheds
	// unscheduled packets early but every flow must complete via
	// scheduled retransmission.
	var flows []workload.Flow
	for src := 1; src < 8; src++ {
		flows = append(flows, workload.Flow{ID: uint64(src), Src: src, Dst: 0, Size: 60_000, Arrival: 0})
	}
	col, fab := runHoma(t, AeolusConfig(), &workload.Trace{Flows: flows}, 5*sim.Millisecond, 3)
	if fab.Counters.AeolusDrops == 0 {
		t.Fatal("test premise: no selective drops under incast")
	}
	if col.Completed() != 7 {
		t.Fatalf("completed %d/7 after selective drops", col.Completed())
	}
}

func TestClassicHomaDropsUnderIncast(t *testing.T) {
	// Classic Homa blasts unscheduled at top priority; with realistic
	// buffers a hard incast loses packets (the Aeolus observation), and
	// timeouts still finish the flows eventually.
	var flows []workload.Flow
	for src := 1; src < 8; src++ {
		flows = append(flows, workload.Flow{ID: uint64(src), Src: src, Dst: 0, Size: 300_000, Arrival: 0})
	}
	eng := sim.NewEngine(4)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, netsim.Config{Spray: true, PortBufferBytes: 100 * packet.MTU})
	col := stats.NewCollector()
	Attach(fab, DefaultConfig(), col)
	fab.Start()
	fab.Inject(&workload.Trace{Flows: flows})
	eng.Run(sim.Time(20 * sim.Millisecond))
	if fab.Counters.DataDrops == 0 {
		t.Fatal("test premise: classic Homa did not drop under incast")
	}
	if col.Completed() != 7 {
		t.Fatalf("completed %d/7 after drops", col.Completed())
	}
}

func TestAllToAllCompletes(t *testing.T) {
	cfgT := topo.SmallLeafSpine()
	for _, c := range []struct {
		cfg  Config
		seed int64
	}{{AeolusConfig(), 5}, {PHostConfig(), 3}} {
		t.Run(c.cfg.name, func(t *testing.T) {
			tr := workload.AllToAllConfig{
				Hosts: 8, HostRate: cfgT.HostRate, Load: 0.5,
				Dist: workload.IMC10(), Horizon: sim.Millisecond, Seed: c.seed,
			}.Generate()
			col, _ := runHoma(t, c.cfg, tr, 4*sim.Millisecond, c.seed)
			if col.Completed() < int64(len(tr.Flows))*95/100 {
				t.Fatalf("completed %d/%d", col.Completed(), len(tr.Flows))
			}
		})
	}
}

func TestPHostUnloadedFlows(t *testing.T) {
	tr := &workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 0, Dst: 7, Size: 10_000, Arrival: 0},
		{ID: 2, Src: 1, Dst: 6, Size: 1_000_000, Arrival: 0},
	}}
	col, _ := runHoma(t, PHostConfig(), tr, 2*sim.Millisecond, 1)
	if col.Completed() != 2 {
		t.Fatalf("completed %d/2", col.Completed())
	}
	for _, r := range col.Records() {
		if sd := r.Slowdown(); sd > 1.5 {
			t.Fatalf("flow %d unloaded slowdown %.2f", r.ID, sd)
		}
	}
}

func TestPHostFlatPriority(t *testing.T) {
	// pHost does not rely on switch data priorities: every data packet
	// uses one class.
	eng := sim.NewEngine(2)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, PHostConfig().FabricConfig())
	Attach(fab, PHostConfig(), stats.NewCollector())
	fab.Start()
	prios := map[uint8]bool{}
	fab.AddObserver(netsim.ObserverFuncs{Delivered: func(host int, p *packet.Packet) {
		if p.Kind == packet.Data {
			prios[p.Priority] = true
		}
	}})
	fab.Inject(&workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 0, Dst: 7, Size: 500_000, Arrival: 0},
		{ID: 2, Src: 1, Dst: 7, Size: 5_000, Arrival: 0},
	}})
	eng.Run(sim.Time(sim.Millisecond))
	if len(prios) != 1 {
		t.Fatalf("pHost used %d data priorities, want 1", len(prios))
	}
}

func TestOvercommitSpillsGrants(t *testing.T) {
	// Two senders to one receiver with long flows: both must receive
	// grants (the second via overcommitment when the first's window
	// fills).
	flows := []workload.Flow{
		{ID: 1, Src: 1, Dst: 0, Size: 1_000_000, Arrival: 0},
		{ID: 2, Src: 2, Dst: 0, Size: 1_000_000, Arrival: 0},
	}
	col, _ := runHoma(t, AeolusConfig(), &workload.Trace{Flows: flows}, 10*sim.Millisecond, 6)
	if col.Completed() != 2 {
		t.Fatalf("completed %d/2", col.Completed())
	}
}

func TestDeterminism(t *testing.T) {
	cfgT := topo.SmallLeafSpine()
	mk := func() *workload.Trace {
		return workload.AllToAllConfig{
			Hosts: 8, HostRate: cfgT.HostRate, Load: 0.6,
			Dist: workload.WebSearch(), Horizon: 500 * sim.Microsecond, Seed: 8,
		}.Generate()
	}
	runOnce := func() (int64, int64) {
		col, fab := runHoma(t, AeolusConfig(), mk(), 2*sim.Millisecond, 9)
		return col.Completed(), fab.Counters.DeliveredData
	}
	c1, d1 := runOnce()
	c2, d2 := runOnce()
	if c1 != c2 || d1 != d2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", c1, d1, c2, d2)
	}
}
