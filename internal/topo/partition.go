package topo

import (
	"fmt"
	"sort"
)

// Partition assigns every host and switch of a topology to one of
// NumShards shards such that only Boundary-marked links cross shards,
// each with a positive propagation delay. The synchronization window is
// not computed here: the fabric knows what it actually sends across the
// cut and derives its epoch from that (netsim.NewSharded).
type Partition struct {
	NumShards   int
	HostShard   []int32 // host id → shard
	SwitchShard []int32 // switch id → shard
}

// ShardOfHost returns the shard owning host h.
func (p *Partition) ShardOfHost(h int) int { return int(p.HostShard[h]) }

// ShardOfSwitch returns the shard owning switch s.
func (p *Partition) ShardOfSwitch(s int) int { return int(p.SwitchShard[s]) }

// MaxShards returns the number of partition units (connected components
// under non-boundary links) in the topology — the largest shard count
// MakePartition accepts. For a leaf-spine this is racks + spines; for a
// k-ary fat-tree, pods + cores.
func MaxShards(t *Topology) int {
	return len(components(t))
}

// autoShardFloor is the fewest hosts AutoShards gives a shard. Below it
// a shard's epochs are too thin to repay the barrier; at it the 144-host
// leaf-spine runs on two whole-rack shards 1.3–1.5× faster than serial on
// two cores and level with serial on one, while one shard per rack there
// gains less and costs a fifth more memory in a sweep (CHANGES.md has
// the measurements; DESIGN.md §11.5 the rule).
const autoShardFloor = 64

// AutoShards is the shard count a run takes when none is requested: one
// shard per autoShardFloor hosts, capped at the host-bearing partition
// units (a pod of a fat-tree, a rack of a leaf-spine) — 2 for the
// 144-host leaf-spine, 16 for the k=16 FatTree, 32 for k=32 — with
// MakePartition's LPT placing whole units and spreading the switch-only
// ones over the shards. Fewer than two is serial. It is a pure function
// of the topology and never looks at the machine: epoch counts,
// ShardStats and checkpoint compatibility must not depend on where a run
// happens. A cut that would leave no lookahead (a zero-delay boundary
// link) stays serial.
func AutoShards(t *Topology) int {
	n := t.NumHosts / autoShardFloor
	if n < 2 {
		return 1
	}
	for _, sw := range t.Switches {
		for _, port := range sw.Ports {
			if port.Boundary && port.Delay <= 0 {
				return 1
			}
		}
	}
	hostsOn := hostsPerSwitch(t)
	units := 0
	for _, unit := range components(t) {
		for _, sw := range unit {
			if hostsOn[sw] > 0 {
				units++
				break
			}
		}
	}
	return min(n, units)
}

// hostsPerSwitch counts the hosts attached to each switch.
func hostsPerSwitch(t *Topology) []int {
	hostsOn := make([]int, len(t.Switches))
	for _, sw := range t.HostSwitch {
		hostsOn[sw]++
	}
	return hostsOn
}

// MakePartition splits t into n shards. The partition units are the
// connected components of the switch graph with boundary links removed
// (a rack plus its hosts in a leaf-spine; a pod in a fat-tree; each
// spine or core switch is its own unit). Units are placed by weighted
// LPT (longest-processing-time) greedy: heaviest unit first onto the
// currently lightest shard, where a unit's weight is dominated by its
// host count (protocol and NIC events scale with hosts) with switch
// count as the fractional part, so host-bearing units spread evenly and
// switch-only units (spines, cores — weight ≥ 1 each) fill in the gaps
// and keep every shard populated. All orderings and tie-breaks are by
// id, so the partition is a pure function of (topology, n).
//
// The balance ceiling is structural: units cannot be split (a pod is
// one unit — only agg↔core links are boundaries), so at shard counts
// approaching the unit count most shards hold only switch-only units
// and the host-bearing shards dominate the critical path; the barrier
// loop's idle-skip dispatch (sim.Group) keeps those near-empty shards
// cheap. The scale campaign (DESIGN.md §13.2) measures the 16–64-shard
// profile.
//
// It fails when n exceeds the unit count, when a unit-internal link is
// marked Boundary inconsistently (cross-shard link with zero delay), or
// when n < 1.
func MakePartition(t *Topology, n int) (*Partition, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: partition needs ≥1 shard, got %d", n)
	}
	comps := components(t)
	if n > len(comps) {
		return nil, fmt.Errorf("topo: %s has %d partition units, cannot split into %d shards",
			t.Name, len(comps), n)
	}

	p := &Partition{
		NumShards:   n,
		HostShard:   make([]int32, t.NumHosts),
		SwitchShard: make([]int32, len(t.Switches)),
	}
	hostsOn := hostsPerSwitch(t)
	// Weight: hosts dominate, switches break host-ties and guarantee a
	// positive weight for switch-only units.
	const hostWeight = 1 << 16
	weight := make([]int64, len(comps))
	order := make([]int, len(comps))
	for k, unit := range comps {
		order[k] = k
		w := int64(len(unit))
		for _, sw := range unit {
			w += int64(hostsOn[sw]) * hostWeight
		}
		weight[k] = w
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weight[order[a]] > weight[order[b]]
	})
	load := make([]int64, n)
	for _, k := range order {
		shard := 0
		for s := 1; s < n; s++ {
			if load[s] < load[shard] {
				shard = s
			}
		}
		load[shard] += weight[k]
		for _, sw := range comps[k] {
			p.SwitchShard[sw] = int32(shard)
		}
	}
	for h := 0; h < t.NumHosts; h++ {
		p.HostShard[h] = p.SwitchShard[t.HostSwitch[h]]
	}

	// Every cross-shard link must be a boundary link with positive delay;
	// anything else would break conservative synchronization.
	crossed := false
	for _, sw := range t.Switches {
		for pi, port := range sw.Ports {
			if port.ToHost {
				continue
			}
			if p.SwitchShard[sw.ID] == p.SwitchShard[port.Peer] {
				continue
			}
			if !port.Boundary {
				return nil, fmt.Errorf("topo: %s: non-boundary link sw%d:%d–sw%d crosses shards (partition unit split)",
					t.Name, sw.ID, pi, port.Peer)
			}
			if port.Delay <= 0 {
				return nil, fmt.Errorf("topo: %s: cross-shard link sw%d:%d–sw%d has zero delay; lookahead would be empty",
					t.Name, sw.ID, pi, port.Peer)
			}
			crossed = true
		}
	}
	if n > 1 && !crossed {
		return nil, fmt.Errorf("topo: %s: no cross-shard links in a %d-shard partition", t.Name, n)
	}
	return p, nil
}

// components returns the connected components of the switch graph with
// boundary links removed, each as a sorted slice of switch ids, ordered
// by smallest member id.
func components(t *Topology) [][]int {
	nSw := len(t.Switches)
	parent := make([]int, nSw)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra // root at smallest id for stable ordering
		}
	}
	for _, sw := range t.Switches {
		for _, port := range sw.Ports {
			if !port.ToHost && !port.Boundary {
				union(sw.ID, port.Peer)
			}
		}
	}
	var comps [][]int
	rootComp := map[int]int{}
	for id := 0; id < nSw; id++ { // ascending id ⇒ components ordered by min member
		r := find(id)
		k, ok := rootComp[r]
		if !ok {
			k = len(comps)
			rootComp[r] = k
			comps = append(comps, nil)
		}
		comps[k] = append(comps[k], id)
	}
	return comps
}
