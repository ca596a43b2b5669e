package topo

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
)

func TestLeafSpineStructure(t *testing.T) {
	tp := DefaultLeafSpine().Build()
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if tp.NumHosts != 144 {
		t.Fatalf("hosts = %d, want 144", tp.NumHosts)
	}
	if got := tp.NumSwitches(); got != 13 { // 9 leaves + 4 spines
		t.Fatalf("switches = %d, want 13", got)
	}
	// Host 17 lives in rack 1.
	if tp.Rack(17) != 1 {
		t.Fatalf("Rack(17) = %d, want 1", tp.Rack(17))
	}
	// Same-rack path: 2 links (host→leaf→host).
	if p := tp.Path(0, 1); len(p) != 2 {
		t.Fatalf("same-rack path length = %d, want 2", len(p))
	}
	// Cross-rack path: 4 links.
	if p := tp.Path(0, 143); len(p) != 4 {
		t.Fatalf("cross-rack path length = %d, want 4", len(p))
	}
}

// The paper's §3.4 worked example: unloaded data RTT 5.8 µs, control RTT
// 5.2 µs, BDP 72.5 KB on the default leaf-spine. Our calibration must
// land within 1% of those numbers.
func TestLeafSpineCalibration(t *testing.T) {
	tp := DefaultLeafSpine().Build()
	within := func(got sim.Duration, wantUs, tol float64) bool {
		return math.Abs(got.Microseconds()-wantUs) <= tol*wantUs
	}
	if d := tp.DataRTT(); !within(d, 5.8, 0.01) {
		t.Errorf("DataRTT = %v, want ≈5.8us", d)
	}
	if d := tp.CtrlRTT(); !within(d, 5.2, 0.01) {
		t.Errorf("CtrlRTT = %v, want ≈5.2us", d)
	}
	bdp := tp.BDP()
	if math.Abs(float64(bdp)-72500) > 0.01*72500 {
		t.Errorf("BDP = %d bytes, want ≈72500", bdp)
	}
}

func TestOversubscribedLeafSpine(t *testing.T) {
	tp := OversubscribedLeafSpine().Build()
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Core links at 200G: 16 hosts × 100G vs 4 uplinks × 200G = 2:1.
	up := tp.Switches[0].Ports[16]
	if up.Rate != 200e9 {
		t.Fatalf("uplink rate = %g, want 200e9", up.Rate)
	}
}

func TestTestbedLeafSpine(t *testing.T) {
	tp := TestbedLeafSpine().Build()
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if tp.NumHosts != 32 {
		t.Fatalf("hosts = %d, want 32", tp.NumHosts)
	}
	// Software stack: RTT should be on the order of 8 µs.
	rtt := tp.CtrlRTT().Microseconds()
	if rtt < 6 || rtt > 10 {
		t.Fatalf("testbed cRTT = %.2fus, want ~8us", rtt)
	}
}

func TestFatTreeStructure(t *testing.T) {
	tp := DefaultFatTree().Build()
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if tp.NumHosts != 1024 {
		t.Fatalf("hosts = %d, want 1024", tp.NumHosts)
	}
	// 128 edge + 128 agg + 64 core.
	if got := tp.NumSwitches(); got != 320 {
		t.Fatalf("switches = %d, want 320", got)
	}
	// Same-edge: 2 links; same-pod: 4 links; cross-pod: 6 links.
	if p := tp.Path(0, 1); len(p) != 2 {
		t.Fatalf("same-edge path = %d links, want 2", len(p))
	}
	if p := tp.Path(0, 9); len(p) != 4 {
		t.Fatalf("same-pod path = %d links, want 4", len(p))
	}
	if p := tp.Path(0, 1023); len(p) != 6 {
		t.Fatalf("cross-pod path = %d links, want 6", len(p))
	}
}

func TestSmallFatTree(t *testing.T) {
	tp := SmallFatTree().Build()
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if tp.NumHosts != 16 || tp.NumSwitches() != 20 {
		t.Fatalf("k=4 fat-tree: hosts=%d switches=%d, want 16/20", tp.NumHosts, tp.NumSwitches())
	}
}

// routeCandidates returns every output port sw's rule offers toward dst.
func routeCandidates(sw *Switch, dst int) []int32 {
	pi, cands := sw.Rule.Route(dst)
	if pi >= 0 {
		return []int32{pi}
	}
	return cands
}

// reaches reports whether every candidate path from sw leads to dst
// within the hop budget (exhaustive multipath walk).
func reaches(tp *Topology, sw *Switch, dst, budget int) bool {
	if budget < 0 {
		return false
	}
	for _, pi := range routeCandidates(sw, dst) {
		p := sw.Ports[pi]
		if p.ToHost {
			if p.Peer != dst {
				return false
			}
			continue
		}
		if !reaches(tp, tp.Switches[p.Peer], dst, budget-1) {
			return false
		}
	}
	return true
}

// Property: every switch in a fat-tree can reach every host over EVERY
// routing candidate (all sprayed/ECMP paths make progress and terminate
// at the destination), with the structural rules standing in for the
// explicit tables they replaced.
func TestFatTreeRoutesProperty(t *testing.T) {
	tp := SmallFatTree().Build()
	for _, sw := range tp.Switches {
		for dst := 0; dst < tp.NumHosts; dst++ {
			if !reaches(tp, sw, dst, tp.MaxPathSwitches()) {
				t.Fatalf("switch %d cannot reach host %d over all candidates", sw.ID, dst)
			}
		}
	}
}

// The structural rules must reproduce the explicit tables exactly: same
// single down port, same uplink candidate set in the same order. The
// test re-materializes the k=4 fat-tree tables from first principles.
func TestFatTreeRuleMatchesTable(t *testing.T) {
	tp := SmallFatTree().Build()
	k := 4
	half := k / 2
	numEdge := k * half
	numAgg := k * half
	hostPod := func(h int) int { return h / (half * half) }
	hostEdge := func(h int) int { return h / half }
	var up []int32
	for i := 0; i < half; i++ {
		up = append(up, int32(half+i))
	}
	for _, sw := range tp.Switches {
		for dst := 0; dst < tp.NumHosts; dst++ {
			var want []int32
			switch {
			case sw.ID < numEdge: // edge
				if hostEdge(dst) == sw.ID {
					want = []int32{int32(dst % half)}
				} else {
					want = up
				}
			case sw.ID < numEdge+numAgg: // agg
				pod := (sw.ID - numEdge) / half
				if hostPod(dst) == pod {
					want = []int32{int32(hostEdge(dst) - pod*half)}
				} else {
					want = up
				}
			default: // core
				want = []int32{int32(hostPod(dst))}
			}
			got := routeCandidates(sw, dst)
			if len(got) != len(want) {
				t.Fatalf("switch %d dst %d: %v candidates, want %v", sw.ID, dst, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("switch %d dst %d: candidates %v, want %v", sw.ID, dst, got, want)
				}
			}
		}
	}
}

// The hyperscale rungs: k=32 (8192 hosts) and the k=48 class (27648
// hosts) must build, validate, and route in reasonable time and memory —
// the point of structural routing.
func TestHyperscaleFatTrees(t *testing.T) {
	for _, tc := range []struct {
		cfg             FatTreeConfig
		hosts, switches int
	}{
		{HyperscaleFatTree(), 8192, 32*16 + 32*16 + 256},
		{MegaFatTree(), 27648, 48*24 + 48*24 + 576},
	} {
		tp := tc.cfg.Build()
		if err := tp.Validate(); err != nil {
			t.Fatal(err)
		}
		if tp.NumHosts != tc.hosts || tp.NumSwitches() != tc.switches {
			t.Fatalf("%s: hosts=%d switches=%d, want %d/%d",
				tp.Name, tp.NumHosts, tp.NumSwitches(), tc.hosts, tc.switches)
		}
		// Cross-pod path: 6 links through edge/agg/core/agg/edge.
		if p := tp.Path(0, tp.NumHosts-1); len(p) != 6 {
			t.Fatalf("%s: cross-pod path = %d links, want 6", tp.Name, len(p))
		}
		// Spot-check routing correctness from a few vantage switches.
		for _, swID := range []int{0, tp.NumSwitches() / 2, tp.NumSwitches() - 1} {
			for _, dst := range []int{0, 1, tp.NumHosts / 2, tp.NumHosts - 1} {
				if !reaches(tp, tp.Switches[swID], dst, tp.MaxPathSwitches()) {
					t.Fatalf("%s: switch %d cannot reach host %d", tp.Name, swID, dst)
				}
			}
		}
	}
}

func TestOneWayDelayComponents(t *testing.T) {
	tp := DefaultLeafSpine().Build()
	// Cross-rack MTU one-way: serialization 120+30+30+120 ns, propagation
	// 4×200 ns, switching 3×450 ns, host stack 2×225 ns = 2900 ns.
	want := 2900 * sim.Nanosecond
	if d := tp.OneWayDelay(0, 143, packet.MTU); d != want {
		t.Fatalf("OneWayDelay cross-rack MTU = %v, want %v", d, want)
	}
	// Same-rack is strictly faster than cross-rack.
	if tp.OneWayDelay(0, 1, packet.MTU) >= d0143(tp) {
		t.Fatal("same-rack delay not below cross-rack delay")
	}
}

func d0143(tp *Topology) sim.Duration { return tp.OneWayDelay(0, 143, packet.MTU) }

func TestUnloadedFCT(t *testing.T) {
	tp := DefaultLeafSpine().Build()
	// A one-packet flow's FCT equals its one-way delay.
	one := tp.UnloadedFCT(0, 143, 100)
	if want := tp.OneWayDelay(0, 143, 100+packet.HeaderSize); one != want {
		t.Fatalf("1-pkt FCT = %v, want %v", one, want)
	}
	// A large flow is dominated by access-link serialization:
	// 1 MB ≈ 1e6/1436 packets ≈ 697 MTUs ≈ 83.7 µs at 100G.
	big := tp.UnloadedFCT(0, 143, 1_000_000)
	lower := sim.TransmissionTime(1_000_000, tp.HostRate)
	if big < lower {
		t.Fatalf("1MB FCT %v below pure serialization %v", big, lower)
	}
	if big > lower+20*sim.Microsecond {
		t.Fatalf("1MB FCT %v too far above serialization %v", big, lower)
	}
	// Monotonic in size.
	if tp.UnloadedFCT(0, 143, 5000) <= tp.UnloadedFCT(0, 143, 500) {
		t.Fatal("FCT not monotonic in flow size")
	}
}

// Property: unloaded FCT is monotone non-decreasing in flow size for
// arbitrary sizes and host pairs.
func TestUnloadedFCTMonotoneProperty(t *testing.T) {
	tp := SmallLeafSpine().Build()
	f := func(a, b uint32, src, dst uint8) bool {
		s1 := int64(a%10_000_000) + 1
		s2 := int64(b%10_000_000) + 1
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		sh := int(src) % tp.NumHosts
		dh := int(dst) % tp.NumHosts
		return tp.UnloadedFCT(sh, dh, s1) <= tp.UnloadedFCT(sh, dh, s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadWiring(t *testing.T) {
	tp := SmallLeafSpine().Build()
	// Corrupt a backlink: leaf 0's uplink to spine 0 claims the spine's
	// port toward leaf 1.
	tp.Switches[0].Ports[4].PeerPort = 1
	if err := tp.Validate(); err == nil {
		t.Fatal("Validate accepted asymmetric wiring")
	}
}

func TestPathSameHost(t *testing.T) {
	tp := SmallLeafSpine().Build()
	if p := tp.Path(3, 3); len(p) != 1 {
		t.Fatalf("self path length = %d, want 1", len(p))
	}
}

// TestLatencyMathWalksInPlace: OneWayDelay and UnloadedFCT equal the sums
// over the materialized Path — protocols call them per host at start-up
// and per completed flow — and allocate nothing.
func TestLatencyMathWalksInPlace(t *testing.T) {
	for _, tp := range []*Topology{
		DefaultLeafSpine().Build(), OversubscribedLeafSpine().Build(), DefaultFatTree().Build(),
	} {
		n := tp.NumHosts
		for _, pair := range [][2]int{{0, 0}, {0, 1}, {0, n / 2}, {n - 1, 0}, {n / 3, n - 2}} {
			src, dst := pair[0], pair[1]
			path := tp.Path(src, dst)
			for _, size := range []int{packet.HeaderSize, 777, packet.MTU} {
				want := 2 * tp.HostDelay
				for i, l := range path {
					want += sim.TransmissionTime(size, l.Rate) + l.Delay
					if i < len(path)-1 {
						want += tp.SwitchDelay
					}
				}
				if got := tp.OneWayDelay(src, dst, size); got != want {
					t.Errorf("%s: OneWayDelay(%d, %d, %d) = %v, want %v", tp.Name, src, dst, size, got, want)
				}
			}
			for _, size := range []int64{1, 1460, 30_000, 1 << 20} {
				bottleneck := tp.HostRate
				for _, l := range path {
					bottleneck = math.Min(bottleneck, l.Rate)
				}
				want := tp.OneWayDelay(src, dst, packet.DataPacketSize(size, 0))
				for i := 1; i < packet.PacketsForBytes(size); i++ {
					want += sim.TransmissionTime(packet.DataPacketSize(size, i), bottleneck)
				}
				if got := tp.UnloadedFCT(src, dst, size); got != want {
					t.Errorf("%s: UnloadedFCT(%d, %d, %d) = %v, want %v", tp.Name, src, dst, size, got, want)
				}
			}
		}
		var sink sim.Duration
		if a := testing.AllocsPerRun(100, func() {
			sink += tp.OneWayDelay(0, n-1, packet.MTU) + tp.UnloadedFCT(n-1, 0, 30_000)
		}); a != 0 {
			t.Errorf("%s: latency math allocates %.0f objects per call pair", tp.Name, a)
		}
		_ = sink
	}
}

// TestValidateRequiresRule pins that the rule is a switch's one routing
// field: a switch without one fails validation instead of panicking on
// its first forwarded packet.
func TestValidateRequiresRule(t *testing.T) {
	tp := SmallFatTree().Build()
	tp.Switches[3].Rule = nil
	if err := tp.Validate(); err == nil || !strings.Contains(err.Error(), "switch 3: no routing rule") {
		t.Fatalf("Validate() = %v, want a missing-rule error for switch 3", err)
	}
}
