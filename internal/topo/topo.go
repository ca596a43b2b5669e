// Package topo models datacenter network topologies as explicit graphs of
// hosts and switches with per-port link rates and delays, plus structural
// multipath routing rules. It also provides the latency arithmetic the
// paper's evaluation depends on: unloaded round-trip times, bandwidth-delay
// product, and ideal (alone-in-the-network) flow completion times used as
// the slowdown baseline.
package topo

import (
	"fmt"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
)

// Port describes one switch port: what it connects to and the properties of
// the attached link. Links are full duplex; each direction is modeled by
// the output port on its sending side.
type Port struct {
	ToHost   bool         // true if the peer is a host
	Peer     int          // host id, or switch id
	PeerPort int          // port index on the peer switch (-1 for hosts)
	Rate     float64      // link rate, bits per second
	Delay    sim.Duration // propagation delay

	// Boundary marks ports on links that cross the topology's natural
	// partition boundary (leaf↔spine in a leaf-spine, agg↔core in a
	// fat-tree). Sharded execution may only cut the fabric along boundary
	// links; arrivals over them are ordered by link identity rather than
	// insertion order so that event order is shard-count-invariant (see
	// sim.Engine's arrival band). Builders set it on both directions of a
	// boundary link.
	Boundary bool
}

// Switch is a node in the fabric with a set of ports and a route. Routing
// is structural, through Rule — O(1) memory per switch instead of an
// O(hosts) table, which is what makes 10k-host fabrics affordable (a k=48
// fat-tree's explicit tables alone would cost ~2 GB). Every switch has a
// Rule; Validate rejects one without.
type Switch struct {
	ID    int
	Ports []Port
	Rule  *RouteRule
}

// RouteRule is the closed-form routing of one switch in a regular
// multi-rooted tree: a contiguous range of hosts is reached downward,
// each down port serving DownDiv consecutive hosts; every other host is
// reached through the Up candidates (spray/ECMP). It reproduces exactly
// the tables the builders used to materialize — same candidate sets in
// the same order, so ECMP hashing and spraying draw identically.
type RouteRule struct {
	DownBase  int32   // first host id reached via down ports
	DownCount int32   // number of hosts in the down range
	DownDiv   int32   // consecutive hosts per down port, ≥ 1
	DownPort  int32   // port index of the first down port
	Up        []int32 // uplink candidates for hosts outside the range
}

// Route returns the output toward dst: either a single resolved port
// (second result nil) or the multipath candidate set to spray/hash
// across. No allocation on either path.
func (r *RouteRule) Route(dst int) (int32, []int32) {
	if d := int32(dst) - r.DownBase; d >= 0 && d < r.DownCount {
		return r.DownPort + d/r.DownDiv, nil
	}
	return -1, r.Up
}

// Topology is an immutable description of a datacenter network.
type Topology struct {
	Name        string
	NumHosts    int
	HostRate    float64      // access link rate, bits per second
	HostDelay   sim.Duration // host stack latency per send or receive
	SwitchDelay sim.Duration // switch processing latency per traversal
	Switches    []*Switch

	HostSwitch []int // ToR switch id for each host
	HostPort   []int // ToR port index facing each host
	HostLink   Port  // template for the host→ToR uplink (rate/delay)

	// maxPathSwitches is the largest number of switches on any host-to-host
	// path, used for worst-case RTT computations.
	maxPathSwitches int
}

// Validate checks structural invariants: every route resolves, links are
// symmetric, and every host is reachable from every switch.
func (t *Topology) Validate() error {
	if t.NumHosts <= 0 {
		return fmt.Errorf("topology %s: no hosts", t.Name)
	}
	for _, sw := range t.Switches {
		if err := t.validateRoutes(sw); err != nil {
			return err
		}
		for pi, p := range sw.Ports {
			if p.ToHost {
				if p.Peer < 0 || p.Peer >= t.NumHosts {
					return fmt.Errorf("switch %d port %d: bad host %d", sw.ID, pi, p.Peer)
				}
				if t.HostSwitch[p.Peer] != sw.ID || t.HostPort[p.Peer] != pi {
					return fmt.Errorf("switch %d port %d: host %d back-reference mismatch", sw.ID, pi, p.Peer)
				}
				continue
			}
			peer := t.Switches[p.Peer]
			back := peer.Ports[p.PeerPort]
			if back.ToHost || back.Peer != sw.ID || back.PeerPort != pi {
				return fmt.Errorf("switch %d port %d: asymmetric wiring to switch %d", sw.ID, pi, p.Peer)
			}
			if back.Rate != p.Rate || back.Delay != p.Delay {
				return fmt.Errorf("switch %d port %d: asymmetric link properties", sw.ID, pi)
			}
			if back.Boundary != p.Boundary {
				return fmt.Errorf("switch %d port %d: asymmetric boundary flag", sw.ID, pi)
			}
		}
	}
	return nil
}

// validateRoutes checks one switch's rule in O(ports): range arithmetic
// plus full coverage.
func (t *Topology) validateRoutes(sw *Switch) error {
	r := sw.Rule
	if r == nil {
		return fmt.Errorf("switch %d: no routing rule", sw.ID)
	}
	if r.DownDiv < 1 {
		return fmt.Errorf("switch %d: rule DownDiv %d < 1", sw.ID, r.DownDiv)
	}
	if r.DownCount < 0 || int(r.DownBase) < 0 || int(r.DownBase)+int(r.DownCount) > t.NumHosts {
		return fmt.Errorf("switch %d: rule down range [%d,%d) outside hosts [0,%d)",
			sw.ID, r.DownBase, int(r.DownBase)+int(r.DownCount), t.NumHosts)
	}
	if r.DownCount > 0 {
		lastPort := r.DownPort + (r.DownCount-1)/r.DownDiv
		if r.DownPort < 0 || int(lastPort) >= len(sw.Ports) {
			return fmt.Errorf("switch %d: rule down ports [%d,%d] outside ports [0,%d)",
				sw.ID, r.DownPort, lastPort, len(sw.Ports))
		}
	}
	if int(r.DownCount) < t.NumHosts && len(r.Up) == 0 {
		return fmt.Errorf("switch %d: rule covers %d of %d hosts with no uplinks",
			sw.ID, r.DownCount, t.NumHosts)
	}
	for _, pi := range r.Up {
		if pi < 0 || int(pi) >= len(sw.Ports) {
			return fmt.Errorf("switch %d: rule uplink uses bad port %d", sw.ID, pi)
		}
	}
	return nil
}

// Path returns a representative host-to-host path as the sequence of
// (rate, delay) links traversed, always taking the first routing candidate.
// In the regular topologies built here all equal-cost paths have identical
// latency, so the representative path is exact for latency math.
func (t *Topology) Path(src, dst int) []Port {
	var path []Port
	t.walk(src, dst, func(l Port) { path = append(path, l) })
	return path
}

// walk calls visit on each link of the representative path from src to
// dst, in order. The latency math below runs on it directly: protocols ask
// for delays per host at start-up and per completed flow, and need no
// slice of the route.
func (t *Topology) walk(src, dst int, visit func(Port)) {
	visit(t.hostUplink(src))
	if src == dst {
		return
	}
	sw := t.Switches[t.HostSwitch[src]]
	for hops := 0; ; hops++ {
		if hops > 16 {
			panic("topo: routing loop")
		}
		pi, cands := sw.Rule.Route(dst)
		if pi < 0 {
			pi = cands[0]
		}
		p := sw.Ports[pi]
		visit(p)
		if p.ToHost {
			return
		}
		sw = t.Switches[p.Peer]
	}
}

func (t *Topology) hostUplink(host int) Port {
	// The host's uplink mirrors the ToR's downlink to it.
	sw := t.Switches[t.HostSwitch[host]]
	down := sw.Ports[t.HostPort[host]]
	return Port{ToHost: false, Peer: sw.ID, Rate: down.Rate, Delay: down.Delay}
}

// OneWayDelay returns the unloaded latency for a single packet of the given
// wire size from src to dst: host stack latency at both ends, plus per-link
// serialization and propagation, plus switch processing at each switch.
func (t *Topology) OneWayDelay(src, dst int, size int) sim.Duration {
	d, _ := t.pathLatency(src, dst, size)
	return d
}

// pathLatency is OneWayDelay plus the slowest link rate on the path, from
// one walk of the route.
func (t *Topology) pathLatency(src, dst int, size int) (sim.Duration, float64) {
	// Sender stack + receiver stack; a switch sits between consecutive
	// links, so every link but the last is followed by one.
	d := 2*t.HostDelay - t.SwitchDelay
	slowest := t.HostRate
	t.walk(src, dst, func(l Port) {
		d += sim.TransmissionTime(size, l.Rate) + l.Delay + t.SwitchDelay
		if l.Rate < slowest {
			slowest = l.Rate
		}
	})
	return d, slowest
}

// maxDistancePair returns a pair of hosts at maximum topological distance
// (first and last host — regular topologies place them in different racks
// and pods).
func (t *Topology) maxDistancePair() (int, int) {
	if t.NumHosts == 1 {
		return 0, 0
	}
	return 0, t.NumHosts - 1
}

// DataRTT returns the unloaded round-trip time for full-MTU packets between
// a maximally distant host pair (MTU out, MTU back). This matches the
// paper's "unloaded RTT for data packets" (5.8 µs on the default
// leaf-spine).
func (t *Topology) DataRTT() sim.Duration {
	a, b := t.maxDistancePair()
	return t.OneWayDelay(a, b, packet.MTU) + t.OneWayDelay(b, a, packet.MTU)
}

// CtrlRTT returns the unloaded round-trip time for control packets between
// a maximally distant pair (the paper's cRTT, 5.2 µs on the default
// leaf-spine).
func (t *Topology) CtrlRTT() sim.Duration {
	a, b := t.maxDistancePair()
	return t.OneWayDelay(a, b, packet.HeaderSize) + t.OneWayDelay(b, a, packet.HeaderSize)
}

// BDP returns the bandwidth-delay product in bytes: access rate × DataRTT.
func (t *Topology) BDP() int64 {
	return int64(t.HostRate * t.DataRTT().Seconds() / 8)
}

// UnloadedFCT returns the ideal completion time for a flow of size payload
// bytes from src to dst when it is alone in the network: the time from the
// sender starting transmission to the last byte arriving at the receiver,
// with store-and-forward pipelining across hops. This is the denominator of
// the paper's slowdown metric.
func (t *Topology) UnloadedFCT(src, dst int, size int64) sim.Duration {
	n := packet.PacketsForBytes(size)
	if n == 0 {
		return 0
	}
	first := packet.DataPacketSize(size, 0)
	// First packet pipelines through every hop; the rest drain behind it at
	// the bottleneck (access) rate. All topologies here have core links at
	// least as fast as access links, so the access link is the bottleneck.
	d, bottleneck := t.pathLatency(src, dst, first)
	for i := 1; i < n; i++ {
		d += sim.TransmissionTime(packet.DataPacketSize(size, i), bottleneck)
	}
	return d
}

// Rack returns the index of the ToR switch of a host, usable as a rack id.
func (t *Topology) Rack(host int) int { return t.HostSwitch[host] }

// NumSwitches returns the number of switches.
func (t *Topology) NumSwitches() int { return len(t.Switches) }

// MaxPathSwitches returns the largest number of switches on any
// host-to-host path.
func (t *Topology) MaxPathSwitches() int { return t.maxPathSwitches }
