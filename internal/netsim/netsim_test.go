package netsim

import (
	"strings"
	"testing"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// sink is a trivial protocol that records everything it receives and can
// be handed packets to transmit.
type sink struct {
	host     *Host
	received []*packet.Packet
	at       []sim.Time
	onPacket func(p *packet.Packet)
}

func (s *sink) Start(h *Host)                 { s.host = h }
func (s *sink) OnFlowArrival(f workload.Flow) {}
func (s *sink) OnPacket(p *packet.Packet) {
	p.Keep() // retained in received past OnPacket; tests inspect it later
	s.received = append(s.received, p)
	s.at = append(s.at, s.host.Engine().Now())
	if s.onPacket != nil {
		s.onPacket(p)
	}
}

func buildFabric(t *testing.T, cfgTopo topo.LeafSpineConfig, cfg Config) (*Fabric, []*sink) {
	t.Helper()
	eng := sim.NewEngine(1)
	tp := cfgTopo.Build()
	f := New(eng, tp, cfg)
	// Every fabric test runs under the conservation auditor; the check
	// fires after the test body, when the engine has drained.
	f.EnableAudit()
	t.Cleanup(func() {
		if errs := f.AuditVerify(); len(errs) != 0 {
			t.Errorf("packet conservation audit failed:\n%s", strings.Join(errs, "\n"))
		}
	})
	sinks := make([]*sink, tp.NumHosts)
	for i := range sinks {
		sinks[i] = &sink{}
		f.AttachProtocol(i, sinks[i])
	}
	f.Start()
	return f, sinks
}

func TestUnloadedDeliveryLatency(t *testing.T) {
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
	eng := f.Engine()
	tp := f.Topology()

	// Cross-rack MTU data packet: delivery time must equal the analytic
	// one-way delay exactly (this pins the whole latency model).
	p := packet.NewData(0, 7, 1, 0, packet.MTU, packet.PrioShort)
	f.Host(0).Send(p)
	eng.RunAll()
	if len(sinks[7].received) != 1 {
		t.Fatalf("received %d packets, want 1", len(sinks[7].received))
	}
	want := tp.OneWayDelay(0, 7, packet.MTU)
	if got := sinks[7].at[0]; got != sim.Time(want) {
		t.Fatalf("delivery at %v, want %v", got, want)
	}

	// Control packet, same rack.
	c := packet.NewControl(packet.Token, 1, 2, 5)
	f.Host(1).Send(c)
	start := eng.Now()
	eng.RunAll()
	if len(sinks[2].received) != 1 {
		t.Fatal("control packet lost")
	}
	wantCtl := tp.OneWayDelay(1, 2, packet.HeaderSize)
	if got := sinks[2].at[0].Sub(start); got != wantCtl {
		t.Fatalf("ctrl delivery took %v, want %v", got, wantCtl)
	}
}

func TestSerializationBackToBack(t *testing.T) {
	// Two MTU packets sent at once arrive exactly one access-link
	// serialization time apart (the core is faster, so spacing is set by
	// the 100G access link).
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
	f.Host(0).Send(packet.NewData(0, 7, 1, 0, packet.MTU, packet.PrioShort))
	f.Host(0).Send(packet.NewData(0, 7, 1, 1, packet.MTU, packet.PrioShort))
	f.Engine().RunAll()
	if len(sinks[7].received) != 2 {
		t.Fatalf("received %d, want 2", len(sinks[7].received))
	}
	gap := sinks[7].at[1].Sub(sinks[7].at[0])
	want := sim.TransmissionTime(packet.MTU, 100e9)
	if gap != want {
		t.Fatalf("arrival gap = %v, want %v", gap, want)
	}
}

func TestPriorityOrdering(t *testing.T) {
	// Enqueue a low-priority packet then a burst of high-priority ones;
	// after the in-flight low packet, all high-priority packets overtake
	// queued low-priority ones.
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
	for i := 0; i < 4; i++ {
		f.Host(0).Send(packet.NewData(0, 7, 1, i, packet.MTU, packet.PrioDataLow))
	}
	for i := 0; i < 4; i++ {
		f.Host(0).Send(packet.NewData(0, 7, 2, i, packet.MTU, packet.PrioShort))
	}
	f.Engine().RunAll()
	if len(sinks[7].received) != 8 {
		t.Fatalf("received %d, want 8", len(sinks[7].received))
	}
	// First received is the head-of-line low packet (already committed),
	// then the four short ones, then the remaining low ones.
	order := make([]uint64, 0, 8)
	for _, p := range sinks[7].received {
		order = append(order, p.Flow)
	}
	want := []uint64{1, 2, 2, 2, 2, 1, 1, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSprayingUsesAllSpines(t *testing.T) {
	// Default leaf-spine has 4 spines; sending many packets cross-rack
	// must use all of them. We detect path diversity via arrival overlap:
	// with spraying, 4 packets can be in flight concurrently on the core.
	eng := sim.NewEngine(1)
	tp := topo.DefaultLeafSpine().Build()
	f := New(eng, tp, Config{Spray: true})
	s := &sink{}
	for i := 0; i < tp.NumHosts; i++ {
		if i == 143 {
			f.AttachProtocol(i, s)
		} else {
			f.AttachProtocol(i, &sink{})
		}
	}
	f.Start()
	// Count spine usage directly from switch counters.
	for i := 0; i < 400; i++ {
		f.Host(0).Send(packet.NewData(0, 143, uint64(i), 0, packet.MTU, packet.PrioShort))
	}
	eng.RunAll()
	used := 0
	for si := 9; si < 13; si++ { // spines are switches 9..12
		sw := &f.switches[si]
		for pi := range sw.ports {
			if sw.ports[pi].txBytes > 0 {
				used++
				break
			}
		}
	}
	if used != 4 {
		t.Fatalf("spines used = %d, want 4", used)
	}
	if len(s.received) != 400 {
		t.Fatalf("delivered %d, want 400", len(s.received))
	}
}

func TestECMPSticksToOnePath(t *testing.T) {
	eng := sim.NewEngine(1)
	tp := topo.DefaultLeafSpine().Build()
	f := New(eng, tp, Config{Spray: false})
	for i := 0; i < tp.NumHosts; i++ {
		f.AttachProtocol(i, &sink{})
	}
	f.Start()
	for i := 0; i < 100; i++ {
		f.Host(0).Send(packet.NewData(0, 143, 77, i, packet.MTU, packet.PrioShort))
	}
	eng.RunAll()
	used := 0
	for si := 9; si < 13; si++ {
		sw := &f.switches[si]
		for pi := range sw.ports {
			if sw.ports[pi].txBytes > 0 {
				used++
				break
			}
		}
	}
	if used != 1 {
		t.Fatalf("ECMP flow used %d spines, want 1", used)
	}
}

func TestDropTailAndCounters(t *testing.T) {
	// Tiny port buffers: an incast through one downlink must drop.
	cfg := Config{Spray: true, PortBufferBytes: 5 * packet.MTU}
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), cfg)
	for src := 1; src < 8; src++ {
		for i := 0; i < 20; i++ {
			f.Host(src).Send(packet.NewData(src, 0, uint64(src), i, packet.MTU, packet.PrioShort))
		}
	}
	f.Engine().RunAll()
	if f.Counters.DataDrops == 0 {
		t.Fatal("expected drops with tiny buffers")
	}
	if got := int64(len(sinks[0].received)) + f.Counters.DataDrops; got != 140 {
		t.Fatalf("delivered+dropped = %d, want 140 (conservation)", got)
	}
	if f.Counters.DeliveredData != int64(len(sinks[0].received)) {
		t.Fatal("DeliveredData counter mismatch")
	}
}

func TestECNMarking(t *testing.T) {
	cfg := Config{Spray: true, ECNThresholdBytes: 3 * packet.MTU}
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), cfg)
	for src := 1; src < 8; src++ {
		for i := 0; i < 10; i++ {
			f.Host(src).Send(packet.NewData(src, 0, uint64(src), i, packet.MTU, packet.PrioShort))
		}
	}
	f.Engine().RunAll()
	if f.Counters.ECNMarks == 0 {
		t.Fatal("no ECN marks under congestion")
	}
	marked := 0
	for _, p := range sinks[0].received {
		if p.ECN {
			marked++
		}
	}
	if int64(marked) != f.Counters.ECNMarks {
		t.Fatalf("marked delivered %d vs counter %d", marked, f.Counters.ECNMarks)
	}
}

func TestTrimming(t *testing.T) {
	cfg := Config{Spray: true, TrimThresholdBytes: 8 * packet.MTU}
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), cfg)
	for src := 1; src < 8; src++ {
		for i := 0; i < 20; i++ {
			f.Host(src).Send(packet.NewData(src, 0, uint64(src), i, packet.MTU, packet.PrioDataHigh))
		}
	}
	f.Engine().RunAll()
	if f.Counters.Trims == 0 {
		t.Fatal("no trims under congestion")
	}
	full, trimmed := 0, 0
	for _, p := range sinks[0].received {
		if p.Trimmed {
			trimmed++
			if p.Size != packet.HeaderSize || p.Priority != packet.PrioControl {
				t.Fatal("trimmed packet not header-sized at control priority")
			}
		} else {
			full++
		}
	}
	// Everything arrives: trimming replaces dropping.
	if full+trimmed != 140 {
		t.Fatalf("full %d + trimmed %d != 140 (drops=%d)", full, trimmed, f.Counters.DataDrops)
	}
	if int64(trimmed) != f.Counters.Trims {
		t.Fatalf("trimmed delivered %d vs counter %d", trimmed, f.Counters.Trims)
	}
}

func TestAeolusSelectiveDrop(t *testing.T) {
	cfg := Config{Spray: true, AeolusThresholdBytes: 3 * packet.MTU}
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), cfg)
	for src := 1; src < 8; src++ {
		for i := 0; i < 10; i++ {
			p := packet.NewData(src, 0, uint64(src), i, packet.MTU, packet.PrioShort)
			p.Unsched = true
			f.Host(src).Send(p)
		}
	}
	// Scheduled packets at the same priority are spared.
	f.Host(1).Send(packet.NewData(1, 0, 99, 0, packet.MTU, packet.PrioShort))
	f.Engine().RunAll()
	if f.Counters.AeolusDrops == 0 {
		t.Fatal("no Aeolus drops under congestion")
	}
	for _, p := range sinks[0].received {
		if p.Flow == 99 {
			return // scheduled packet survived
		}
	}
	t.Fatal("scheduled packet was dropped")
}

func TestPFCPausesUpstream(t *testing.T) {
	cfg := Config{
		Spray: true, EnablePFC: true,
		PFCPause: 10 * packet.MTU, PFCResume: 5 * packet.MTU,
		PortBufferBytes: 1 << 20,
	}
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), cfg)
	// Incast from 7 hosts into host 0 overflows the ToR downlink; PFC
	// must pause and, because the buffer is ample, nothing is dropped.
	for src := 1; src < 8; src++ {
		for i := 0; i < 60; i++ {
			f.Host(src).Send(packet.NewData(src, 0, uint64(src), i, packet.MTU, packet.PrioDataHigh))
		}
	}
	f.Engine().RunAll()
	if f.Counters.PFCPauses == 0 {
		t.Fatal("PFC never paused")
	}
	if f.Counters.PFCResumes == 0 {
		t.Fatal("PFC never resumed")
	}
	if f.Counters.DataDrops != 0 {
		t.Fatalf("drops = %d with PFC, want 0", f.Counters.DataDrops)
	}
	if len(sinks[0].received) != 420 {
		t.Fatalf("delivered %d, want 420", len(sinks[0].received))
	}
}

// TestINTCollection sends three packets of one flow, smallest first, at
// one instant down one ECMP path: host NIC, leaf uplink, spine downlink,
// leaf downlink. Every hop must record its line rate, the port's
// cumulative transmitted bytes with the packet counted, and the bytes
// still queued as the packet leaves. The two larger packets wait at the
// NIC behind the first, so the second leaves with the third queued; every
// later hop is faster than the NIC, or sees each packet only after the one
// before has gone, so nothing queues there.
func TestINTCollection(t *testing.T) {
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: false})
	sizes := []int{packet.HeaderSize, 700, packet.MTU}
	for i, size := range sizes {
		p := packet.NewData(0, 7, 1, i, size, packet.PrioDataHigh)
		p.CollectINT = true
		f.Host(0).Send(p)
	}
	f.Engine().RunAll()
	got := sinks[7].received
	if len(got) != len(sizes) {
		t.Fatalf("delivered %d packets, want %d", len(got), len(sizes))
	}
	rates := []float64{100e9, 400e9, 400e9, 100e9}
	wantTx := []int64{64, 764, 2264} // the same at every hop: no other traffic
	wantQueued := [][]int64{{0, 0, 0, 0}, {packet.MTU, 0, 0, 0}, {0, 0, 0, 0}}
	for i, p := range got {
		hops := p.INT()
		if len(hops) != len(rates) {
			t.Fatalf("packet %d: %d INT hops, want %d", i, len(hops), len(rates))
		}
		for h, hop := range hops {
			if hop.RateBps != rates[h] || hop.TxBytes != wantTx[i] || hop.QueueBytes != wantQueued[i][h] {
				t.Errorf("packet %d (%d B) hop %d: rate %g, tx %d B, queued %d B; want %g, %d, %d",
					i, p.Size, h, hop.RateBps, hop.TxBytes, hop.QueueBytes, rates[h], wantTx[i], wantQueued[i][h])
			}
		}
	}
}

func TestInjectTrace(t *testing.T) {
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
	var arrivals []workload.Flow
	for i := range sinks {
		i := i
		sinks[i].onPacket = func(p *packet.Packet) {}
		_ = i
	}
	// Attach a protocol that records arrivals on host 2.
	rec := &flowRecorder{got: &arrivals}
	f.AttachProtocol(2, rec)
	tr := &workload.Trace{Flows: []workload.Flow{
		{ID: 1, Src: 2, Dst: 5, Size: 1000, Arrival: sim.Time(10 * sim.Microsecond)},
		{ID: 2, Src: 2, Dst: 6, Size: 2000, Arrival: sim.Time(20 * sim.Microsecond)},
	}}
	f.Inject(tr)
	f.Engine().RunAll()
	if len(arrivals) != 2 || arrivals[0].ID != 1 || arrivals[1].ID != 2 {
		t.Fatalf("arrivals = %+v", arrivals)
	}
}

type flowRecorder struct {
	got *[]workload.Flow
}

func (r *flowRecorder) Start(h *Host)                 {}
func (r *flowRecorder) OnFlowArrival(f workload.Flow) { *r.got = append(*r.got, f) }
func (r *flowRecorder) OnPacket(p *packet.Packet)     {}

func TestHostQueueBound(t *testing.T) {
	cfg := Config{Spray: true, HostQueueBytes: 2 * packet.MTU}
	f, _ := buildFabric(t, topo.SmallLeafSpine(), cfg)
	for i := 0; i < 10; i++ {
		f.Host(0).Send(packet.NewData(0, 7, 1, i, packet.MTU, packet.PrioShort))
	}
	f.Engine().RunAll()
	if f.Counters.HostDrops == 0 {
		t.Fatal("bounded NIC queue never dropped")
	}
}

func TestSendWrongSourcePanics(t *testing.T) {
	f, _ := buildFabric(t, topo.SmallLeafSpine(), Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("Send with wrong Src did not panic")
		}
	}()
	f.Host(0).Send(packet.NewData(1, 2, 1, 0, packet.MTU, 1))
}

func TestFabricDeterminism(t *testing.T) {
	run := func() (sim.Time, uint64) {
		eng := sim.NewEngine(99)
		tp := topo.SmallLeafSpine().Build()
		f := New(eng, tp, Config{Spray: true, PortBufferBytes: 10 * packet.MTU})
		last := sim.Time(0)
		for i := 0; i < tp.NumHosts; i++ {
			s := &sink{}
			s.onPacket = func(p *packet.Packet) { last = eng.Now() }
			f.AttachProtocol(i, s)
		}
		f.Start()
		for src := 0; src < 8; src++ {
			for i := 0; i < 30; i++ {
				dst := (src + 1 + i%7) % 8
				f.Host(src).Send(packet.NewData(src, dst, uint64(src*100+i), i, packet.MTU, packet.PrioShort))
			}
		}
		eng.RunAll()
		return last, eng.Events()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("non-deterministic fabric: (%v,%d) vs (%v,%d)", t1, e1, t2, e2)
	}
}

// lossEverywhere drops each packet at every switch hop with probability
// rate, through the per-port fault table.
func lossEverywhere(f *Fabric, rate float64) {
	for sw, d := range f.Topology().Switches {
		for pt := range d.Ports {
			f.SetLinkLossRate(sw, pt, rate)
		}
	}
}

func TestRandomLossInjection(t *testing.T) {
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
	lossEverywhere(f, 0.2)
	const n = 500
	for i := 0; i < n; i++ {
		f.Host(0).Send(packet.NewData(0, 7, uint64(i), 0, packet.MTU, packet.PrioShort))
	}
	f.Engine().RunAll()
	got := len(sinks[7].received)
	drops := f.Counters.FaultDrops
	if got+int(drops) != n {
		t.Fatalf("conservation: delivered %d + dropped %d != %d", got, drops, n)
	}
	// Cross-rack path has 3 switch enqueues; survival ≈ 0.8^3 ≈ 0.51.
	if got < n/3 || got > 2*n/3 {
		t.Fatalf("delivered %d/%d at 20%% per-hop loss, want ≈51%%", got, n)
	}
}

func TestDropObserverFires(t *testing.T) {
	cfg := Config{Spray: true, PortBufferBytes: 3 * packet.MTU}
	f, _ := buildFabric(t, topo.SmallLeafSpine(), cfg)
	var observed int64
	f.AddObserver(ObserverFuncs{Dropped: func(p *packet.Packet) { observed++ }})
	for src := 1; src < 8; src++ {
		for i := 0; i < 20; i++ {
			f.Host(src).Send(packet.NewData(src, 0, uint64(src), i, packet.MTU, packet.PrioShort))
		}
	}
	f.Engine().RunAll()
	if observed == 0 || observed != f.Counters.DataDrops {
		t.Fatalf("drop observer fired %d times, counters %d", observed, f.Counters.DataDrops)
	}
}

func TestMaxPortQueueTracksHighWater(t *testing.T) {
	f, _ := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
	if f.MaxPortQueue() != 0 {
		t.Fatal("high-water mark nonzero before traffic")
	}
	for src := 1; src < 8; src++ {
		for i := 0; i < 10; i++ {
			f.Host(src).Send(packet.NewData(src, 0, uint64(src), i, packet.MTU, packet.PrioShort))
		}
	}
	f.Engine().RunAll()
	max := f.MaxPortQueue()
	// 7 senders × 10 MTU converge on one downlink; the queue must have
	// built up several packets but cannot exceed what was sent.
	if max < 5*packet.MTU || max > 70*packet.MTU {
		t.Fatalf("max port queue = %d bytes", max)
	}
}

func TestPFCWatermarkHysteresis(t *testing.T) {
	// Pause must engage above the pause mark and release only below the
	// resume mark (not in between).
	cfg := Config{
		Spray: true, EnablePFC: true,
		PFCPause: 20 * packet.MTU, PFCResume: 10 * packet.MTU,
		PortBufferBytes: 1 << 20,
	}
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), cfg)
	for src := 1; src < 8; src++ {
		for i := 0; i < 40; i++ {
			f.Host(src).Send(packet.NewData(src, 0, uint64(src), i, packet.MTU, packet.PrioDataHigh))
		}
	}
	f.Engine().RunAll()
	if f.Counters.PFCPauses == 0 {
		t.Fatal("no pauses")
	}
	// Every pause eventually resumes once traffic drains.
	if f.Counters.PFCResumes != f.Counters.PFCPauses {
		t.Fatalf("pauses %d != resumes %d after drain", f.Counters.PFCPauses, f.Counters.PFCResumes)
	}
	if len(sinks[0].received) != 280 {
		t.Fatalf("delivered %d/280 with PFC", len(sinks[0].received))
	}
}
