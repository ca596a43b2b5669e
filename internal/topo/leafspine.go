package topo

import (
	"fmt"

	"dcpim/internal/sim"
)

// LeafSpineConfig parameterizes a two-tier leaf-spine fabric: Racks leaf
// switches each attaching HostsPerRack hosts at HostRate, fully meshed to
// Spines spine switches at SpineRate.
type LeafSpineConfig struct {
	Racks        int
	HostsPerRack int
	Spines       int
	HostRate     float64 // access link rate, bits/s
	SpineRate    float64 // leaf↔spine link rate, bits/s
	PropDelay    sim.Duration
	SwitchDelay  sim.Duration
	HostDelay    sim.Duration
	Name         string
}

// DefaultLeafSpine returns the paper's default simulation topology
// (Table 1): 9 racks × 16 hosts = 144 hosts, 4 spines, 100 Gbps access,
// 400 Gbps core, 200 ns propagation, 450 ns switch processing. The host
// stack latency is calibrated (225 ns per send/receive) so that the
// unloaded data RTT is 5.8 µs and the control RTT is ≈5.2 µs, matching
// §3.4's worked example (BDP = 72.5 KB).
func DefaultLeafSpine() LeafSpineConfig {
	return LeafSpineConfig{
		Racks: 9, HostsPerRack: 16, Spines: 4,
		HostRate: 100e9, SpineRate: 400e9,
		PropDelay:   200 * sim.Nanosecond,
		SwitchDelay: 450 * sim.Nanosecond,
		HostDelay:   225 * sim.Nanosecond,
		Name:        "leafspine-144",
	}
}

// OversubscribedLeafSpine returns the paper's 2:1 oversubscribed variant:
// identical to the default but with 200 Gbps leaf↔spine links.
func OversubscribedLeafSpine() LeafSpineConfig {
	c := DefaultLeafSpine()
	c.SpineRate = 200e9
	c.Name = "leafspine-144-oversub2"
	return c
}

// TestbedLeafSpine approximates the paper's 32-server CloudLab testbed
// (§4.2): 2 racks × 16 hosts, 10 Gbps links everywhere, and a software
// host stack (kernel-bypass DPDK, but still microsecond-scale end-host
// latency) giving a control RTT of roughly 8 µs.
func TestbedLeafSpine() LeafSpineConfig {
	return LeafSpineConfig{
		Racks: 2, HostsPerRack: 16, Spines: 2,
		HostRate: 10e9, SpineRate: 10e9,
		PropDelay:   200 * sim.Nanosecond,
		SwitchDelay: 450 * sim.Nanosecond,
		HostDelay:   750 * sim.Nanosecond,
		Name:        "testbed-32",
	}
}

// SmallLeafSpine returns a 2-rack, 8-host topology convenient for unit and
// integration tests: same link technology as the default but small enough
// that full simulations finish in milliseconds of wall-clock time.
func SmallLeafSpine() LeafSpineConfig {
	c := DefaultLeafSpine()
	c.Racks, c.HostsPerRack, c.Spines = 2, 4, 2
	c.Name = "leafspine-8"
	return c
}

// Build constructs the topology graph and routing rules.
func (c LeafSpineConfig) Build() *Topology {
	if c.Racks <= 0 || c.HostsPerRack <= 0 || c.Spines <= 0 {
		panic(fmt.Sprintf("topo: invalid leaf-spine config %+v", c))
	}
	n := c.Racks * c.HostsPerRack
	t := &Topology{
		Name:        c.Name,
		NumHosts:    n,
		HostRate:    c.HostRate,
		HostDelay:   c.HostDelay,
		SwitchDelay: c.SwitchDelay,
		HostSwitch:  make([]int, n),
		HostPort:    make([]int, n),
		HostLink:    Port{Rate: c.HostRate, Delay: c.PropDelay},

		maxPathSwitches: 3, // leaf, spine, leaf
	}

	// Switch ids: leaves 0..Racks-1, spines Racks..Racks+Spines-1. Each
	// switch's ports are allocated once, at their final count.
	t.Switches = make([]*Switch, 0, c.Racks+c.Spines)
	for l := 0; l < c.Racks; l++ {
		sw := &Switch{ID: l, Ports: make([]Port, 0, c.HostsPerRack+c.Spines)}
		// Downlinks: ports 0..HostsPerRack-1.
		for h := 0; h < c.HostsPerRack; h++ {
			host := l*c.HostsPerRack + h
			sw.Ports = append(sw.Ports, Port{
				ToHost: true, Peer: host, PeerPort: -1,
				Rate: c.HostRate, Delay: c.PropDelay,
			})
			t.HostSwitch[host] = l
			t.HostPort[host] = h
		}
		// Uplinks: ports HostsPerRack..HostsPerRack+Spines-1 to each spine.
		// Leaf↔spine links are the shard boundary: cutting there keeps each
		// rack (and each spine) whole.
		for s := 0; s < c.Spines; s++ {
			sw.Ports = append(sw.Ports, Port{
				Peer: c.Racks + s, PeerPort: l,
				Rate: c.SpineRate, Delay: c.PropDelay, Boundary: true,
			})
		}
		t.Switches = append(t.Switches, sw)
	}
	for s := 0; s < c.Spines; s++ {
		sw := &Switch{ID: c.Racks + s, Ports: make([]Port, 0, c.Racks)}
		// Port l connects down to leaf l.
		for l := 0; l < c.Racks; l++ {
			sw.Ports = append(sw.Ports, Port{
				Peer: l, PeerPort: c.HostsPerRack + s,
				Rate: c.SpineRate, Delay: c.PropDelay, Boundary: true,
			})
		}
		t.Switches = append(t.Switches, sw)
	}

	// Routing, as structural rules (O(1) per switch — see RouteRule): a
	// leaf serves its own rack on ports [0,HostsPerRack) and sprays
	// everything else across its spine uplinks; a spine reaches every
	// host downward, HostsPerRack per leaf port.
	uplinks := make([]int32, c.Spines)
	for s := range uplinks {
		uplinks[s] = int32(c.HostsPerRack + s)
	}
	for l := 0; l < c.Racks; l++ {
		t.Switches[l].Rule = &RouteRule{
			DownBase:  int32(l * c.HostsPerRack),
			DownCount: int32(c.HostsPerRack),
			DownDiv:   1,
			Up:        uplinks,
		}
	}
	for s := 0; s < c.Spines; s++ {
		t.Switches[c.Racks+s].Rule = &RouteRule{
			DownCount: int32(n),
			DownDiv:   int32(c.HostsPerRack),
		}
	}
	return t
}
