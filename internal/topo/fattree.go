package topo

import (
	"fmt"

	"dcpim/internal/sim"
)

// FatTreeConfig parameterizes a three-tier k-ary fat-tree: k pods, each
// with k/2 edge and k/2 aggregation switches, (k/2)² core switches, and
// k³/4 hosts. All links run at Rate (the paper's FatTree uses 100 Gbps
// everywhere).
type FatTreeConfig struct {
	K           int // even, ≥ 2
	Rate        float64
	PropDelay   sim.Duration
	SwitchDelay sim.Duration
	HostDelay   sim.Duration
	Name        string
}

// DefaultFatTree returns the paper's three-tier 1024-host FatTree (k=16,
// 100 Gbps links).
func DefaultFatTree() FatTreeConfig {
	return FatTreeConfig{
		K: 16, Rate: 100e9,
		PropDelay:   200 * sim.Nanosecond,
		SwitchDelay: 450 * sim.Nanosecond,
		HostDelay:   225 * sim.Nanosecond,
		Name:        "fattree-1024",
	}
}

// SmallFatTree returns a k=4 (16-host) fat-tree for tests.
func SmallFatTree() FatTreeConfig {
	c := DefaultFatTree()
	c.K = 4
	c.Name = "fattree-16"
	return c
}

// FatTreeK returns the paper-parameterized fat-tree at an arbitrary even
// k (k³/4 hosts), named fattree-<hosts>.
func FatTreeK(k int) FatTreeConfig {
	c := DefaultFatTree()
	c.K = k
	c.Name = fmt.Sprintf("fattree-%d", k*k*k/4)
	return c
}

// HyperscaleFatTree returns the k=32 (8192-host) three-tier fat-tree —
// the first rung past the paper's 1024-host evaluation scale.
func HyperscaleFatTree() FatTreeConfig { return FatTreeK(32) }

// MegaFatTree returns the k=48-class (27648-host) three-tier fat-tree.
// Structural routing (Switch.Rule) is what makes this size affordable:
// explicit per-switch tables at k=48 would cost gigabytes.
func MegaFatTree() FatTreeConfig { return FatTreeK(48) }

// Build constructs the fat-tree graph and routing rules.
func (c FatTreeConfig) Build() *Topology {
	k := c.K
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree k must be even and ≥2, got %d", k))
	}
	half := k / 2
	numHosts := k * half * half // k pods × k/2 edges × k/2 hosts
	numEdge := k * half
	numAgg := k * half
	numCore := half * half

	t := &Topology{
		Name:        c.Name,
		NumHosts:    numHosts,
		HostRate:    c.Rate,
		HostDelay:   c.HostDelay,
		SwitchDelay: c.SwitchDelay,
		HostSwitch:  make([]int, numHosts),
		HostPort:    make([]int, numHosts),
		HostLink:    Port{Rate: c.Rate, Delay: c.PropDelay},

		maxPathSwitches: 5, // edge, agg, core, agg, edge
	}

	edgeID := func(pod, i int) int { return pod*half + i }
	aggID := func(pod, j int) int { return numEdge + pod*half + j }
	coreID := func(ci int) int { return numEdge + numAgg + ci }
	link := func(peer, peerPort int) Port {
		return Port{Peer: peer, PeerPort: peerPort, Rate: c.Rate, Delay: c.PropDelay}
	}
	// Agg↔core links are the shard boundary: cutting there keeps each pod
	// (and each core switch) whole.
	blink := func(peer, peerPort int) Port {
		p := link(peer, peerPort)
		p.Boundary = true
		return p
	}

	t.Switches = make([]*Switch, numEdge+numAgg+numCore)

	// Every switch has k ports, allocated once up front.
	// Edge switches: ports [0,half) hosts, [half,k) aggs.
	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			sw := &Switch{ID: edgeID(pod, i), Ports: make([]Port, 0, k)}
			for h := 0; h < half; h++ {
				host := (pod*half+i)*half + h
				sw.Ports = append(sw.Ports, Port{
					ToHost: true, Peer: host, PeerPort: -1,
					Rate: c.Rate, Delay: c.PropDelay,
				})
				t.HostSwitch[host] = sw.ID
				t.HostPort[host] = h
			}
			for j := 0; j < half; j++ {
				// Edge i ↔ agg j within the pod; agg's downlink port i.
				sw.Ports = append(sw.Ports, link(aggID(pod, j), i))
			}
			t.Switches[sw.ID] = sw
		}
	}
	// Aggregation switches: ports [0,half) edges, [half,k) cores.
	for pod := 0; pod < k; pod++ {
		for j := 0; j < half; j++ {
			sw := &Switch{ID: aggID(pod, j), Ports: make([]Port, 0, k)}
			for i := 0; i < half; i++ {
				sw.Ports = append(sw.Ports, link(edgeID(pod, i), half+j))
			}
			for x := 0; x < half; x++ {
				// Agg j connects to cores j*half .. j*half+half-1; the
				// core's port toward this pod is port index pod.
				sw.Ports = append(sw.Ports, blink(coreID(j*half+x), pod))
			}
			t.Switches[sw.ID] = sw
		}
	}
	// Core switches: port p connects down to pod p's agg (ci/half).
	for ci := 0; ci < numCore; ci++ {
		sw := &Switch{ID: coreID(ci), Ports: make([]Port, 0, k)}
		j := ci / half
		x := ci % half
		for pod := 0; pod < k; pod++ {
			sw.Ports = append(sw.Ports, blink(aggID(pod, j), half+x))
		}
		t.Switches[sw.ID] = sw
	}

	// Routing, as structural rules (O(1) per switch — see RouteRule).
	// These reproduce the explicit tables exactly: an edge switch serves
	// its half consecutive hosts on ports [0,half) (one host per port)
	// and sends everything else to its half uplinks; an agg switch
	// serves its pod's half² hosts, half per edge; a core switch reaches
	// every host downward, half² per pod port.
	upPorts := make([]int32, half)
	for i := 0; i < half; i++ {
		upPorts[i] = int32(half + i)
	}
	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			sw := t.Switches[edgeID(pod, i)]
			sw.Rule = &RouteRule{
				DownBase:  int32(sw.ID * half), // global edge index == switch id
				DownCount: int32(half),
				DownDiv:   1,
				Up:        upPorts,
			}
		}
		for j := 0; j < half; j++ {
			sw := t.Switches[aggID(pod, j)]
			sw.Rule = &RouteRule{
				DownBase:  int32(pod * half * half),
				DownCount: int32(half * half),
				DownDiv:   int32(half),
				Up:        upPorts,
			}
		}
	}
	for ci := 0; ci < numCore; ci++ {
		t.Switches[coreID(ci)].Rule = &RouteRule{
			DownCount: int32(numHosts),
			DownDiv:   int32(half * half),
		}
	}
	return t
}
