package core

import (
	"runtime"
	"testing"
	"unsafe"

	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// bytesPerFlowBudget is the enforced steady-state memory cost per
// completed flow (see DESIGN.md §13). With flow records slab-recycled
// and per-packet state bit-packed, what remains per flow after
// completion is the collector's FlowRecord (~72 B), the receiver's
// done-flow id, and amortized map/slice growth. The budget leaves
// roughly 2× headroom over the measured figure so it catches regressions
// (a leaked record or timer per flow costs hundreds of bytes), not
// allocator noise.
const bytesPerFlowBudget = 600

// TestSteadyStateBytesPerFlow measures the marginal heap cost per flow
// at steady state: run a warmup wave (populating slabs, buffers, and
// maps), snapshot the live heap, run more waves of the same shape, and
// require the live-heap delta per additional completed flow to stay
// under the budget. Slab recycling is what makes this pass — before it,
// every flow left its record, packed state, and timer closures behind.
func TestSteadyStateBytesPerFlow(t *testing.T) {
	cfgT := topo.SmallLeafSpine()
	h := newHarness(cfgT, DefaultConfig(), 11)

	gen := func(seed int64, start sim.Duration) *workload.Trace {
		tr := workload.AllToAllConfig{
			Hosts: 8, HostRate: cfgT.HostRate, Load: 0.5,
			Dist: workload.IMC10(), Horizon: 2 * sim.Millisecond, Seed: seed,
		}.Generate()
		for i := range tr.Flows {
			tr.Flows[i].Arrival = tr.Flows[i].Arrival.Add(start)
			tr.Flows[i].ID += uint64(seed) << 32 // unique across waves
		}
		return tr
	}

	heapLive := func() uint64 {
		runtime.GC()
		runtime.GC() // second cycle collects what the first's finalizers released
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	wave := sim.Duration(3 * sim.Millisecond) // 2 ms arrivals + 1 ms drain
	h.run(gen(1, 0), wave)
	warmup := h.col.Completed()
	if warmup == 0 {
		t.Fatal("warmup wave completed no flows")
	}
	base := heapLive()

	const waves = 4
	for w := int64(0); w < waves; w++ {
		h.fab.Inject(gen(2+w, sim.Duration(int64(wave)*(w+1))))
		h.eng.Run(sim.Time(sim.Duration(int64(wave) * (w + 2))))
	}
	grown := heapLive()

	flows := h.col.Completed() - warmup
	if flows < 1000 {
		t.Fatalf("only %d steady-state flows; wave shape too small to measure", flows)
	}
	var perFlow int64
	if grown > base {
		perFlow = int64(grown-base) / flows
	}
	t.Logf("steady state: %d flows, live heap %d → %d, %d B/flow (budget %d)",
		flows, base, grown, perFlow, bytesPerFlowBudget)
	if perFlow > bytesPerFlowBudget {
		t.Fatalf("steady-state cost %d B/flow exceeds the %d B/flow budget",
			perFlow, bytesPerFlowBudget)
	}
	// The records the collector must keep forever are the budget's floor;
	// sanity-check the measurement itself is not vacuous.
	if len(h.col.Records()) == 0 {
		t.Fatal("collector kept no records; measurement is vacuous")
	}
}

// mallocsPerPacedPacketBudget bounds the heap objects a sender and its
// receiver allocate per data packet of a long flow at steady state
// (measured 0.04: packets, slabs and timers come from pools and free
// lists). A closure or method value bound on every pacer or token tick
// costs at least one more object per packet — 1.25 per packet with the
// receiver's token loop re-armed through a closure — which is what this
// catches.
const mallocsPerPacedPacketBudget = 0.5

// TestPacerMallocsPerPacket runs one 4 MB flow to warm the slabs, pools
// and free lists, then counts mallocs over a second identical flow: the
// token-clocked data phase must not allocate per pacing tick.
func TestPacerMallocsPerPacket(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop packets, so malloc counts do not hold")
	}
	h := newHarness(topo.SmallLeafSpine(), DefaultConfig(), 11)
	const size = 4 << 20
	wave := 2 * sim.Millisecond
	flow := func(id uint64, at sim.Duration) *workload.Trace {
		return &workload.Trace{Flows: []workload.Flow{
			{ID: id, Src: 0, Dst: 5, Size: size, Arrival: sim.Time(at)},
		}}
	}
	h.run(flow(1, 0), wave)
	h.fab.Inject(flow(2, wave))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.eng.Run(sim.Time(2 * wave))
	runtime.ReadMemStats(&after)
	if h.col.Completed() != 2 {
		t.Fatalf("%d of 2 flows completed", h.col.Completed())
	}
	pkts := float64(packet.PacketsForBytes(size))
	perPkt := float64(after.Mallocs-before.Mallocs) / pkts
	t.Logf("%d mallocs over %.0f paced packets: %.2f per packet (budget %.1f)",
		after.Mallocs-before.Mallocs, pkts, perPkt, mallocsPerPacedPacketBudget)
	if perPkt > mallocsPerPacedPacketBudget {
		t.Fatalf("%.2f mallocs per paced packet exceeds the budget of %.1f",
			perPkt, mallocsPerPacedPacketBudget)
	}
}

// mallocsIn counts the heap objects fn allocates, on one P so that no
// other goroutine's allocations are counted with them.
func mallocsIn(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestIdleHostAllocs: a host costs memory when something addresses it, not
// before. Start allocates nothing per host; a fabric of hosts with no
// flows runs whole matching cycles — all 2r+1 stages of every host, from
// the very first — without allocating per host; and hosts whose demand
// came and went are back to allocating nothing per epoch, their maps and
// buffers cleared in place. The stage ticks ride the shard's lanes
// (clocks), the first on the zero-delay lane and every later one on the
// stage lane: each lane's ring is made once for the shard, when the first
// tick lands on it, and holds every host's tick from then on — one object
// of set-up per lane, where anything per host would be eight.
func TestIdleHostAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop packets, so malloc counts do not hold")
	}
	cfgT := topo.SmallLeafSpine()
	eng := sim.NewEngine(5)
	tp := cfgT.Build()
	fab := netsim.New(eng, tp, netsim.Config{Spray: true})
	col := stats.NewCollector()
	protos := Attach(fab, DefaultConfig(), col)
	const ringOnce = 1

	if n := mallocsIn(func() {
		for h, p := range protos {
			p.Start(fab.Host(h))
		}
	}); n > ringOnce {
		t.Errorf("Start allocated %d objects over %d hosts, want at most the zero-delay lane's ring", n, len(protos))
	}
	if eng.Pending() != len(protos) {
		t.Fatalf("%d events pending after Start, want one stage timer per host (%d)", eng.Pending(), len(protos))
	}

	epoch := protos[0].sh.epochLen
	cycle := func() { eng.Run(eng.Now().Add(epoch)) }
	for i := 0; i < 3; i++ {
		before := eng.Events()
		n := mallocsIn(cycle)
		if ticks := eng.Events() - before; ticks < uint64(protos[0].sh.stages*len(protos)) {
			t.Fatalf("idle cycle %d ran %d events, want all %d stages on each of %d hosts", i, ticks, protos[0].sh.stages, len(protos))
		}
		want := uint64(0)
		if i == 0 {
			want = ringOnce // the stage lane's ring
		}
		if n > want {
			t.Errorf("idle cycle %d allocated %d objects over %d hosts, want at most %d", i, n, len(protos), want)
		}
	}

	// Demand comes: long flows that go through matching and short ones that
	// bypass it, to and from every host, then goes.
	var flows []workload.Flow
	at := eng.Now()
	for h := 0; h < tp.NumHosts; h++ {
		flows = append(flows,
			workload.Flow{ID: uint64(2*h + 1), Src: h, Dst: (h + 5) % tp.NumHosts, Size: 600_000, Arrival: at},
			workload.Flow{ID: uint64(2*h + 2), Src: h, Dst: (h + 3) % tp.NumHosts, Size: 9_000, Arrival: at})
	}
	fab.Inject(&workload.Trace{Flows: flows})
	eng.Run(at.Add(40 * epoch))
	if int(col.Completed()) != len(flows) {
		t.Fatalf("%d of %d flows completed", col.Completed(), len(flows))
	}
	for h, p := range protos {
		if p.rcv.flows == nil || p.snd.flows == nil || len(p.rcv.flows)+len(p.snd.flows) != 0 {
			t.Fatalf("host %d: %d receive and %d send flows left; every host should have woken and drained",
				h, len(p.rcv.flows), len(p.snd.flows))
		}
	}
	for i := 0; i < 3; i++ {
		if n := mallocsIn(cycle); n != 0 {
			t.Errorf("cycle %d after the demand went allocated %d objects over %d hosts, want 0", i, n, len(protos))
		}
	}
}

// TestProtoLayout bounds the bytes one host's dcPIM instance costs in the
// Attach slab (DESIGN.md §13.1): 8,192 of them at k=32. What every host
// holds alike — Config, timing, telemetry — sits behind the one shared
// pointer; a field that is the same on every host belongs there too. The
// flow records are bounded the same way: 10^4–10^6 of them are live at
// once at high load.
func TestProtoLayout(t *testing.T) {
	for _, c := range []struct {
		name     string
		size, at uintptr
	}{
		{"Proto", unsafe.Sizeof(Proto{}), 360},
		{"recvFlow", unsafe.Sizeof(recvFlow{}), 208},
		{"sendFlow", unsafe.Sizeof(sendFlow{}), 144},
	} {
		if c.size > c.at {
			t.Errorf("%s is %d bytes, want <= %d", c.name, c.size, c.at)
		}
	}
}
