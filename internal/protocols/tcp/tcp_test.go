package tcp

import (
	"math"
	"testing"

	"dcpim/internal/netsim"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// The testbed topology from the paper's §4.2: 32 hosts, 10 Gbps, ~8 µs RTT.
func runTCP(t *testing.T, cfg Config, tr *workload.Trace, horizon sim.Duration, seed int64) (*stats.Collector, *netsim.Fabric) {
	t.Helper()
	eng := sim.NewEngine(seed)
	tp := topo.TestbedLeafSpine().Build()
	fab := netsim.New(eng, tp, cfg.FabricConfig())
	col := stats.NewCollector()
	Attach(fab, cfg, col)
	fab.Start()
	fab.Inject(tr)
	eng.Run(sim.Time(horizon))
	return col, fab
}

func oneFlow(size int64) *workload.Trace {
	return &workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 0, Dst: 31, Size: size, Arrival: 0},
	}}
}

func TestCubicLongFlowUnloaded(t *testing.T) {
	col, fab := runTCP(t, CubicConfig(), oneFlow(5_000_000), 50*sim.Millisecond, 1)
	if col.Completed() != 1 {
		t.Fatal("flow not completed")
	}
	if fab.Counters.DataDrops != 0 {
		t.Fatal("drops on an unloaded path")
	}
	// Slow start then cubic growth: a 5 MB flow at 10G (4 ms serialized)
	// should finish within ~2× optimal once the window opens.
	if sd := col.Records()[0].Slowdown(); sd > 2 {
		t.Fatalf("unloaded cubic long-flow slowdown %.2f", sd)
	}
}

func TestDCTCPLongFlowUnloaded(t *testing.T) {
	col, _ := runTCP(t, DCTCPConfig(), oneFlow(5_000_000), 50*sim.Millisecond, 2)
	if col.Completed() != 1 {
		t.Fatal("flow not completed")
	}
	if sd := col.Records()[0].Slowdown(); sd > 2 {
		t.Fatalf("unloaded DCTCP long-flow slowdown %.2f", sd)
	}
}

func TestDCTCPKeepsQueuesShorterThanCubic(t *testing.T) {
	// Two senders share one downlink for a while: DCTCP's ECN control
	// must mark and back off (bounded queues, far fewer drops than
	// Cubic, which fills the 500 KB buffer until it tail-drops).
	flows := []workload.Flow{
		{ID: 1, Src: 1, Dst: 0, Size: 8_000_000, Arrival: 0},
		{ID: 2, Src: 2, Dst: 0, Size: 8_000_000, Arrival: 0},
	}
	dctcpCol, dctcpFab := runTCP(t, DCTCPConfig(), &workload.Trace{Flows: flows}, 100*sim.Millisecond, 3)
	cubicCol, cubicFab := runTCP(t, CubicConfig(), &workload.Trace{Flows: flows}, 100*sim.Millisecond, 3)
	if dctcpCol.Completed() != 2 || cubicCol.Completed() != 2 {
		t.Fatalf("completions: dctcp %d, cubic %d", dctcpCol.Completed(), cubicCol.Completed())
	}
	if dctcpFab.Counters.ECNMarks == 0 {
		t.Fatal("DCTCP saw no ECN marks under contention")
	}
	if cubicFab.Counters.DataDrops == 0 {
		t.Fatal("test premise: cubic did not fill the buffer")
	}
	if dctcpFab.Counters.DataDrops > cubicFab.Counters.DataDrops/4 {
		t.Fatalf("DCTCP drops %d not ≪ cubic drops %d",
			dctcpFab.Counters.DataDrops, cubicFab.Counters.DataDrops)
	}
}

func TestDCTCPIncastMarkCount(t *testing.T) {
	// Eight senders open 10-MSS windows into one host at once: 80
	// packets reach its downlink together, so the queue crosses the
	// 65-packet marking threshold from the first round trip on. The mark
	// count is pinned: a threshold of 64 packets gives 480, 66 gives 478.
	var flows []workload.Flow
	for src := 1; src <= 8; src++ {
		flows = append(flows, workload.Flow{ID: uint64(src), Src: src, Dst: 0, Size: 100_000, Arrival: 0})
	}
	col, fab := runTCP(t, DCTCPConfig(), &workload.Trace{Flows: flows}, 100*sim.Millisecond, 6)
	if col.Completed() != int64(len(flows)) {
		t.Fatalf("completed %d/%d", col.Completed(), len(flows))
	}
	if got := fab.Counters.ECNMarks; got != 479 {
		t.Fatalf("ECN marks %d, want 479", got)
	}
}

func TestFastRetransmitRecoversLoss(t *testing.T) {
	// Force drops with a shallow buffer: flows must still complete
	// (via dup-ack fast retransmit and RTO).
	eng := sim.NewEngine(4)
	tp := topo.TestbedLeafSpine().Build()
	cfg := CubicConfig()
	fc := cfg.FabricConfig()
	fc.PortBufferBytes = 15 * 1500
	fab := netsim.New(eng, tp, fc)
	col := stats.NewCollector()
	Attach(fab, cfg, col)
	fab.Start()
	var flows []workload.Flow
	for src := 1; src <= 4; src++ {
		flows = append(flows, workload.Flow{ID: uint64(src), Src: src, Dst: 0, Size: 1_000_000, Arrival: 0})
	}
	fab.Inject(&workload.Trace{Flows: flows})
	eng.Run(sim.Time(200 * sim.Millisecond))
	if fab.Counters.DataDrops == 0 {
		t.Fatal("test premise: no drops with shallow buffers")
	}
	if col.Completed() != 4 {
		t.Fatalf("completed %d/4 after drops", col.Completed())
	}
}

func TestShortFlowsSlowedByLongFlows(t *testing.T) {
	// The §4.2 effect: short flows queue behind long-flow buffers. Short
	// flows under contention see much higher slowdown than unloaded.
	flows := []workload.Flow{
		{ID: 1, Src: 1, Dst: 0, Size: 20_000_000, Arrival: 0},
	}
	// Short probes every 500 µs once the long flow has ramped.
	for i := 0; i < 10; i++ {
		flows = append(flows, workload.Flow{
			ID: uint64(10 + i), Src: 2, Dst: 0, Size: 20_000,
			Arrival: sim.Time(sim.Duration(4+i) * 500 * sim.Microsecond),
		})
	}
	col, _ := runTCP(t, CubicConfig(), &workload.Trace{Flows: flows}, 100*sim.Millisecond, 5)
	short := stats.Summarize(col.Records(), func(r stats.FlowRecord) bool { return r.Size < 100_000 })
	if short.Count < 8 {
		t.Fatalf("only %d short flows completed", short.Count)
	}
	if short.Mean < 3 {
		t.Fatalf("short flows behind a cubic long flow: mean slowdown %.1f, expected heavy queueing", short.Mean)
	}
}

func TestDCTCPAlphaConverges(t *testing.T) {
	d := NewDCTCP()
	d.Init(100 * MSS)
	rtt := 8 * sim.Microsecond
	now := sim.Time(0)
	// All ACKs marked: alpha → 1.
	for i := 0; i < 2000; i++ {
		now = now.Add(sim.Microsecond)
		d.OnAck(MSS, true, now, rtt)
	}
	if d.alpha < 0.9 {
		t.Fatalf("alpha = %.3f after persistent marking, want →1", d.alpha)
	}
	// No marks: alpha decays toward 0.
	for i := 0; i < 2000; i++ {
		now = now.Add(sim.Microsecond)
		d.OnAck(MSS, false, now, rtt)
	}
	if d.alpha > 0.1 {
		t.Fatalf("alpha = %.3f after mark-free period, want →0", d.alpha)
	}
}

func TestCubicWindowCurve(t *testing.T) {
	cu := NewCubic()
	cu.Init(100 * MSS)
	cu.OnLoss(sim.Time(0))
	w0 := cu.Window()
	if w0 >= 100*MSS || w0 < 69*MSS {
		t.Fatalf("post-loss window %.0f, want ≈0.7×", w0/MSS)
	}
	// Window recovers toward Wmax over time (concave region).
	now := sim.Time(0)
	for i := 0; i < 10000; i++ {
		now = now.Add(10 * sim.Microsecond)
		cu.OnAck(MSS, false, now, 8*sim.Microsecond)
	}
	if cu.Window() < 95*MSS {
		t.Fatalf("window %.0f MSS did not recover toward Wmax=100", cu.Window()/MSS)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newProto accepted nil NewCC")
		}
	}()
	newProto(Config{}, stats.NewCollector())
}

func TestDeterminism(t *testing.T) {
	tp := topo.TestbedLeafSpine()
	mk := func() *workload.Trace {
		return workload.AllToAllConfig{
			Hosts: 32, HostRate: tp.HostRate, Load: 0.3,
			Dist: workload.IMC10(), Horizon: 2 * sim.Millisecond, Seed: 11,
		}.Generate()
	}
	a, _ := runTCP(t, DCTCPConfig(), mk(), 10*sim.Millisecond, 12)
	b, _ := runTCP(t, DCTCPConfig(), mk(), 10*sim.Millisecond, 12)
	if a.Completed() != b.Completed() || a.DeliveredBytes() != b.DeliveredBytes() {
		t.Fatal("non-deterministic TCP run")
	}
	if a.Completed() == 0 {
		t.Fatal("nothing completed")
	}
	_ = math.Pi
}
