package flowtrack_test

import (
	"runtime"
	"testing"

	"dcpim/internal/netsim"
	"dcpim/internal/protocols/homa"
	"dcpim/internal/protocols/hpcc"
	"dcpim/internal/protocols/ndp"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// baselineBytesPerFlowBudget bounds the live heap a baseline keeps per
// completed flow. What must remain is the collector's 48 B FlowRecord
// and the receiver's done-set entry, plus amortized growth of both; a
// finished flow's tracker left in the live map (its record, wrapper and
// map entry) costs about 160–170 B more per flow, which is what this
// catches.
const baselineBytesPerFlowBudget = 150

// TestSteadyStateBytesPerFlow is core's bytes-per-flow test for the
// baselines: run a warmup wave, snapshot the live heap, run more waves of
// the same shape, and bound the live-heap growth per completed flow. Each
// wave drains to an idle fabric — every flow finished, no event pending —
// before the next begins, so the snapshots hold what finished flows leave
// behind and nothing still in flight.
func TestSteadyStateBytesPerFlow(t *testing.T) {
	cfgT := topo.SmallLeafSpine()
	for _, c := range []struct {
		name   string
		fab    netsim.Config
		attach func(*netsim.Fabric, *stats.Collector)
	}{
		{"homa-aeolus", homa.AeolusConfig().FabricConfig(), func(fab *netsim.Fabric, col *stats.Collector) {
			homa.Attach(fab, homa.AeolusConfig(), col)
		}},
		{"ndp", ndp.FabricConfig(), func(fab *netsim.Fabric, col *stats.Collector) { ndp.Attach(fab, col) }},
		{"hpcc", hpcc.FabricConfig(), func(fab *netsim.Fabric, col *stats.Collector) { hpcc.Attach(fab, col) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := sim.NewEngine(11)
			fab := netsim.New(eng, cfgT.Build(), c.fab)
			col := stats.NewCollector()
			c.attach(fab, col)
			fab.Start()

			wave := sim.Duration(4 * sim.Millisecond) // 1 ms arrivals + 3 ms drain
			inject := func(w int64) {
				tr := workload.AllToAllConfig{
					Hosts: 8, HostRate: cfgT.HostRate, Load: 0.5,
					Dist: workload.IMC10(), Horizon: sim.Millisecond, Seed: 1 + w,
				}.Generate()
				for i := range tr.Flows {
					tr.Flows[i].Arrival = tr.Flows[i].Arrival.Add(sim.Duration(int64(wave) * w))
					tr.Flows[i].ID += uint64(w) << 32 // unique across waves
				}
				fab.Inject(tr)
				eng.Run(sim.Time(sim.Duration(int64(wave) * (w + 1))))
				if n := eng.Pending(); n != 0 {
					t.Fatalf("wave %d left %d events pending; the drain is too short to measure", w, n)
				}
			}
			heapLive := func() uint64 {
				runtime.GC()
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				return m.HeapAlloc
			}

			inject(0)
			warmup := col.Completed()
			if warmup == 0 {
				t.Fatal("warmup wave completed no flows")
			}
			base := heapLive()
			for w := int64(1); w <= 4; w++ {
				inject(w)
			}
			grown := heapLive()

			flows := col.Completed() - warmup
			if flows < 1000 {
				t.Fatalf("only %d steady-state flows; wave shape too small to measure", flows)
			}
			var perFlow int64
			if grown > base {
				perFlow = int64(grown-base) / flows
			}
			t.Logf("steady state: %d flows, live heap %d → %d, %d B/flow (budget %d)",
				flows, base, grown, perFlow, baselineBytesPerFlowBudget)
			if perFlow > baselineBytesPerFlowBudget {
				t.Fatalf("steady-state cost %d B/flow exceeds the %d B/flow budget",
					perFlow, baselineBytesPerFlowBudget)
			}
			runtime.KeepAlive(fab)
		})
	}
}
