package phost

import (
	"testing"

	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

func runPHost(t *testing.T, tr *workload.Trace, horizon sim.Duration, seed int64) (*stats.Collector, *netsim.Fabric) {
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

func TestUnloadedFlows(t *testing.T) {
	tr := &workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 0, Dst: 7, Size: 10_000, Arrival: 0},
		{ID: 2, Src: 1, Dst: 6, Size: 1_000_000, Arrival: 0},
	}}
	col, _ := runPHost(t, tr, 2*sim.Millisecond, 1)
	if col.Completed() != 2 {
		t.Fatalf("completed %d/2", col.Completed())
	}
	for _, r := range col.Records() {
		if sd := r.Slowdown(); sd > 1.5 {
			t.Fatalf("flow %d unloaded slowdown %.2f", r.ID, sd)
		}
	}
}

func TestFlatPriority(t *testing.T) {
	// pHost does not rely on switch data priorities: every data packet
	// uses one class.
	eng := sim.NewEngine(2)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, FabricConfig())
	col := stats.NewCollector()
	Attach(fab, col)
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

func TestAllToAll(t *testing.T) {
	cfgT := topo.SmallLeafSpine()
	tr := workload.AllToAllConfig{
		Hosts: 8, HostRate: cfgT.HostRate, Load: 0.5,
		Dist: workload.IMC10(), Horizon: sim.Millisecond, Seed: 3,
	}.Generate()
	col, _ := runPHost(t, tr, 4*sim.Millisecond, 3)
	if col.Completed() < int64(len(tr.Flows))*95/100 {
		t.Fatalf("completed %d/%d", col.Completed(), len(tr.Flows))
	}
}
