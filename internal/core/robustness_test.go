package core

import (
	"testing"

	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// Failure injection: dcPIM must survive random loss of both data and
// control packets (§3.5): notification/finish retransmission timers,
// token-window recovery, and the multi-round matching absorbing lost
// RTS/grant/accept packets.
func TestRandomLossRecovery(t *testing.T) {
	for _, lossRate := range []float64{0.001, 0.01} {
		eng := sim.NewEngine(5)
		tp := topo.SmallLeafSpine().Build()
		fab := netsim.New(eng, tp, netsim.Config{Spray: true})
		lossEverywhere(fab, lossRate)
		var dataDrops, ctrlDrops int
		fab.AddObserver(netsim.ObserverFuncs{Dropped: func(p *packet.Packet) {
			if p.Kind == packet.Data {
				dataDrops++
			} else {
				ctrlDrops++
			}
		}})
		col := stats.NewCollector()
		Attach(fab, DefaultConfig(), col)
		fab.Start()
		tr := workload.AllToAllConfig{
			Hosts: 8, HostRate: tp.HostRate, Load: 0.3,
			Dist: workload.IMC10(), Horizon: 500 * sim.Microsecond, Seed: 6,
		}.Generate()
		fab.Inject(tr)
		// Generous drain: recovery paths take several epochs.
		eng.Run(sim.Time(20 * sim.Millisecond))
		if ctrlDrops == 0 || dataDrops == 0 {
			t.Fatalf("loss %.3f: premise broken (ctrl=%d data=%d drops)", lossRate, ctrlDrops, dataDrops)
		}
		if col.Completed() != int64(len(tr.Flows)) {
			t.Errorf("loss %.3f: completed %d/%d flows", lossRate, col.Completed(), len(tr.Flows))
		}
		if col.DeliveredBytes() != tr.OfferedBytes {
			t.Errorf("loss %.3f: delivered %d of %d bytes", lossRate,
				col.DeliveredBytes(), tr.OfferedBytes)
		}
	}
}

// lossEverywhere drops each packet, data and control alike, at every
// switch hop with probability rate, through the per-port fault table.
func lossEverywhere(fab *netsim.Fabric, rate float64) {
	for sw, d := range fab.Topology().Switches {
		for pt := range d.Ports {
			fab.SetLinkLossRate(sw, pt, rate)
		}
	}
}

// A lost accept leaves sender and receiver disagreeing (§3.5): the
// receiver clocks tokens anyway and the sender honors them, so data still
// flows. We simulate by injecting heavy control loss and confirming long
// flows finish.
func TestLongFlowUnderControlLoss(t *testing.T) {
	eng := sim.NewEngine(7)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, netsim.Config{Spray: true})
	lossEverywhere(fab, 0.02)
	col := stats.NewCollector()
	Attach(fab, DefaultConfig(), col)
	fab.Start()
	fab.Inject(&workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 0, Dst: 7, Size: 2_000_000, Arrival: 0},
		{ID: 2, Src: 1, Dst: 6, Size: 2_000_000, Arrival: 0},
	}})
	eng.Run(sim.Time(50 * sim.Millisecond))
	if col.Completed() != 2 {
		t.Fatalf("completed %d/2 long flows at 2%% loss", col.Completed())
	}
}

// Unit test of token expiry: tokens from an old epoch are discarded after
// the grace period, tokens from the current epoch are spent.
func TestPopValidTokenExpiry(t *testing.T) {
	eng := sim.NewEngine(1)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, netsim.Config{Spray: true})
	col := stats.NewCollector()
	protos := Attach(fab, DefaultConfig(), col)
	fab.Start()
	p := protos[0]
	s := &p.snd

	// Install a fake flow and tokens.
	f := &sendFlow{}
	f.Reset(9, 1, 100_000, 0)
	s.flows = map[uint64]*sendFlow{9: f}
	s.dataEpoch = 5
	// Advance the engine clock past epoch 5's grace window.
	eng.Run(sim.Time(sim.Duration(6) * p.sh.epochLen))

	old := packet.NewControl(packet.Token, 1, 0, 9)
	old.Epoch = 3 // two epochs stale: dead
	prev := packet.NewControl(packet.Token, 1, 0, 9)
	prev.Epoch = 4 // previous epoch but grace long past: dead
	cur := packet.NewControl(packet.Token, 1, 0, 9)
	cur.Epoch = 5
	s.dataEpoch = 5
	for _, tok := range []*packet.Packet{old, prev, cur} {
		s.tokens.Push(tok)
	}

	got := s.popValidToken()
	if got != cur {
		t.Fatalf("popValidToken = %v, want the current-epoch token", got)
	}
	if s.tokens.Len() != 0 {
		t.Fatalf("stale tokens left in queue: %d", s.tokens.Len())
	}
}

// The FCT-optimizing first round (§3.5): with two receivers requesting the
// same sender, the one with the smaller remaining flow wins round one.
func TestFCTRoundPrefersShortFlow(t *testing.T) {
	eng := sim.NewEngine(3)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, netsim.Config{Spray: true})
	col := stats.NewCollector()
	cfg := DefaultConfig()
	cfg.Channels = 1 // force a single channel so the choice is exclusive
	cfg.Rounds = 1   // only the FCT round
	Attach(fab, cfg, col)
	fab.Start()
	// One sender, two medium flows to different receivers; the smaller
	// must complete first under SRPT matching.
	fab.Inject(&workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 0, Dst: 6, Size: 800_000, Arrival: 0},
		{ID: 2, Src: 0, Dst: 7, Size: 150_000, Arrival: 0},
	}})
	eng.Run(sim.Time(10 * sim.Millisecond))
	recs := col.Records()
	if len(recs) != 2 {
		t.Fatalf("completed %d/2", len(recs))
	}
	var small, big stats.FlowRecord
	for _, r := range recs {
		if r.ID == 2 {
			small = r
		} else {
			big = r
		}
	}
	if small.Finish >= big.Finish {
		t.Fatalf("SRPT round: small flow finished at %v after big at %v", small.Finish, big.Finish)
	}
}

// Demand persists across epochs: a flow too large for one data phase
// keeps re-matching until done.
func TestMultiEpochFlow(t *testing.T) {
	eng := sim.NewEngine(8)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, netsim.Config{Spray: true})
	col := stats.NewCollector()
	protos := Attach(fab, DefaultConfig(), col)
	fab.Start()
	// 4 MB ≫ one epoch's channel capacity (≈95 KB × 4 channels).
	fab.Inject(&workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 0, Dst: 7, Size: 4_000_000, Arrival: 0},
	}})
	eng.Run(sim.Time(10 * sim.Millisecond))
	if col.Completed() != 1 {
		t.Fatal("multi-epoch flow did not complete")
	}
	// It must have spanned several epochs.
	tm := protos[0].sh
	if col.Records()[0].FCT() < 5*tm.epochLen {
		t.Fatalf("4MB flow finished in %v — faster than line rate allows?", col.Records()[0].FCT())
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[int]string{5: "e", 1: "a", 3: "c"}
	got := sortedKeys(m)
	want := []int{1, 3, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sortedKeys = %v", got)
		}
	}
}

// The paper's buffering claim (§4.1): matching plus token windows keep at
// most about one BDP of long-flow data queued at any port — "precisely
// what is needed to keep the downlink busy for the next RTT."
func TestBufferingBoundedByBDP(t *testing.T) {
	eng := sim.NewEngine(9)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, netsim.Config{Spray: true})
	col := stats.NewCollector()
	Attach(fab, DefaultConfig(), col)
	fab.Start()
	// Long flows only (no short-flow bursts): worst case for queueing is
	// the dense matrix, where every downlink serves multiple senders.
	tr := workload.DenseTMConfig{Hosts: 8, FlowSize: 400_000, Horizon: sim.Millisecond}.Generate()
	fab.Inject(tr)
	eng.Run(sim.Time(4 * sim.Millisecond))
	if col.Completed() != 56 {
		t.Fatalf("completed %d/56", col.Completed())
	}
	bdp := tp.BDP()
	if max := fab.MaxPortQueue(); max > 2*bdp {
		t.Fatalf("max port queue %d bytes exceeds 2 BDP (%d) — token windows not bounding buffering", max, 2*bdp)
	}
}

// Asynchronous clocks (§3.5): hosts with skewed stage tickers must still
// match and complete flows — stragglers' control packets land in the
// wrong stage window and are absorbed by the multi-round randomized
// design.
func TestClockSkewTolerance(t *testing.T) {
	tp := topo.SmallLeafSpine().Build()
	tm := deriveTiming(DefaultConfig(), tp)
	for _, skew := range []sim.Duration{tm.stageLen / 4, tm.stageLen} {
		eng := sim.NewEngine(13)
		fab := netsim.New(eng, tp, netsim.Config{Spray: true})
		col := stats.NewCollector()
		cfg := DefaultConfig()
		cfg.MaxClockSkew = skew
		Attach(fab, cfg, col)
		fab.Start()
		tr := workload.AllToAllConfig{
			Hosts: 8, HostRate: tp.HostRate, Load: 0.4,
			Dist: workload.IMC10(), Horizon: 500 * sim.Microsecond, Seed: 14,
		}.Generate()
		fab.Inject(tr)
		eng.Run(sim.Time(10 * sim.Millisecond))
		if col.Completed() != int64(len(tr.Flows)) {
			t.Errorf("skew %v: completed %d/%d", skew, col.Completed(), len(tr.Flows))
		}
		short := stats.Summarize(col.Records(), func(r stats.FlowRecord) bool {
			return r.Size <= tp.BDP()
		})
		if short.Mean > 1.8 {
			t.Errorf("skew %v: short-flow mean slowdown %.2f", skew, short.Mean)
		}
	}
}
