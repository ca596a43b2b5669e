package topo

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// TestPartitionUnits pins the partition-unit counts of the stock
// topologies: a leaf-spine splits into racks + spines, a fat-tree into
// pods + cores.
func TestPartitionUnits(t *testing.T) {
	cases := []struct {
		name string
		topo *Topology
		want int
	}{
		{"leafspine-8", SmallLeafSpine().Build(), 4},      // 2 racks + 2 spines
		{"leafspine-144", DefaultLeafSpine().Build(), 13}, // 9 racks + 4 spines
		{"fattree-16", SmallFatTree().Build(), 8},         // 4 pods + 4 cores
	}
	for _, c := range cases {
		if got := MaxShards(c.topo); got != c.want {
			t.Errorf("%s: MaxShards = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestMakePartitionBalance1024 checks the weighted-LPT placement on the
// paper's 1024-host FatTree (16 pods + 64 cores = 80 units) at the shard
// counts the scale campaign sweeps. Pods are indivisible, so perfect
// balance means every host-bearing shard holds exactly pods' worth of
// hosts: at 16 shards one pod (64 hosts) plus 4 cores each; at 64
// shards no shard may hold more than one pod and every shard must own
// at least one unit.
func TestMakePartitionBalance1024(t *testing.T) {
	tp := DefaultFatTree().Build()
	if got := MaxShards(tp); got != 80 {
		t.Fatalf("fattree-1024 has %d units, want 80", got)
	}
	for _, n := range []int{8, 16, 64, 80} {
		p, err := MakePartition(tp, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		hosts := make([]int, n)
		units := make([]int, n)
		seen := map[int32]bool{}
		for h := 0; h < tp.NumHosts; h++ {
			hosts[p.ShardOfHost(h)]++
		}
		for _, sw := range tp.Switches {
			if !seen[p.SwitchShard[sw.ID]] {
				seen[p.SwitchShard[sw.ID]] = true
			}
		}
		for k := 0; k < n; k++ {
			if !seen[int32(k)] {
				t.Errorf("n=%d: shard %d owns no switches", n, k)
			}
			_ = units
		}
		podHosts := 1024 / 16
		wantMax := podHosts * ((16 + n - 1) / n) // ceil(pods/shards) pods each
		for k, hc := range hosts {
			if hc > wantMax {
				t.Errorf("n=%d: shard %d holds %d hosts, LPT bound is %d", n, k, hc, wantMax)
			}
		}
		if n >= 16 {
			// Every pod on its own shard: exactly 16 shards with 64 hosts.
			withHosts := 0
			for _, hc := range hosts {
				if hc == podHosts {
					withHosts++
				} else if hc != 0 {
					t.Errorf("n=%d: shard holds %d hosts, want 0 or %d", n, hc, podHosts)
				}
			}
			if withHosts != 16 {
				t.Errorf("n=%d: %d host-bearing shards, want 16", n, withHosts)
			}
		}
	}
}

func TestMakePartitionErrors(t *testing.T) {
	tp := SmallLeafSpine().Build()
	if _, err := MakePartition(tp, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := MakePartition(tp, MaxShards(tp)+1); err == nil {
		t.Error("n beyond unit count accepted")
	}
}

// TestMakePartitionInvariants checks, for every shard count a topology
// supports: hosts co-located with their ToR, only boundary links
// crossing shards, and determinism.
func TestMakePartitionInvariants(t *testing.T) {
	for _, tp := range []*Topology{SmallLeafSpine().Build(), SmallFatTree().Build()} {
		max := MaxShards(tp)
		for n := 1; n <= max; n++ {
			p, err := MakePartition(tp, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", tp.Name, n, err)
			}
			if p.NumShards != n {
				t.Fatalf("%s n=%d: NumShards %d", tp.Name, n, p.NumShards)
			}
			for h := 0; h < tp.NumHosts; h++ {
				if p.ShardOfHost(h) != p.ShardOfSwitch(tp.HostSwitch[h]) {
					t.Fatalf("%s n=%d: host %d not on its ToR's shard", tp.Name, n, h)
				}
			}
			seen := make(map[int]bool)
			for _, sw := range tp.Switches {
				seen[p.ShardOfSwitch(sw.ID)] = true
				for pi, port := range sw.Ports {
					if port.ToHost || port.Boundary {
						continue
					}
					if p.ShardOfSwitch(sw.ID) != p.ShardOfSwitch(port.Peer) {
						t.Fatalf("%s n=%d: non-boundary link sw%d:%d crosses shards", tp.Name, n, sw.ID, pi)
					}
				}
			}
			if len(seen) != n {
				t.Errorf("%s n=%d: only %d shards populated", tp.Name, n, len(seen))
			}
			q, err := MakePartition(tp, n)
			if err != nil || !reflect.DeepEqual(p, q) {
				t.Errorf("%s n=%d: partition not deterministic", tp.Name, n)
			}
		}
	}
}

// TestAutoShards pins the default shard count of the stock topologies:
// one shard per 64 hosts, capped at the pods or racks, serial below two —
// always a count MakePartition accepts, every shard holding whole units
// with host counts within one unit of each other, and the same answer
// whatever the machine looks like.
func TestAutoShards(t *testing.T) {
	wide := DefaultLeafSpine()
	wide.Racks = 18
	wide.Name = "leafspine-288"
	dead := DefaultFatTree()
	dead.PropDelay = 0
	cases := []struct {
		topo *Topology
		want int
	}{
		{SmallLeafSpine().Build(), 1},
		{SmallFatTree().Build(), 1},
		{FatTreeK(8).Build(), 2},          // 128 hosts: the floor, 8 pods
		{DefaultLeafSpine().Build(), 2},   // 144 hosts: racks 5 + 4
		{FatTreeK(10).Build(), 3},         // 250 hosts
		{wide.Build(), 4},                 // 288 hosts, 18 racks
		{FatTreeK(12).Build(), 6},         // 432 hosts, 12 pods
		{DefaultFatTree().Build(), 16},    // 1024 hosts: one per pod
		{HyperscaleFatTree().Build(), 32}, // 8192 hosts: one per pod
		{dead.Build(), 1},                 // no lookahead across the cut
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			got := AutoShards(c.topo)
			if got != c.want {
				t.Errorf("GOMAXPROCS=%d %s (%d hosts): AutoShards = %d, want %d",
					procs, c.topo.Name, c.topo.NumHosts, got, c.want)
			}
			if got > MaxShards(c.topo) {
				t.Errorf("%s: AutoShards %d exceeds MaxShards %d", c.topo.Name, got, MaxShards(c.topo))
			}
			p, err := MakePartition(c.topo, got)
			if err != nil {
				t.Errorf("%s: auto count %d does not partition: %v", c.topo.Name, got, err)
				continue
			}
			// Whole units: a unit's switches (and so its hosts) share a
			// shard. unit is the largest unit's host count.
			hostsOn := hostsPerSwitch(c.topo)
			unit := 0
			for _, u := range components(c.topo) {
				n := 0
				for _, sw := range u {
					n += hostsOn[sw]
					if p.ShardOfSwitch(sw) != p.ShardOfSwitch(u[0]) {
						t.Errorf("%s: unit of sw%d split across shards", c.topo.Name, u[0])
					}
				}
				unit = max(unit, n)
			}
			hosts := make([]int, got)
			for h := 0; h < c.topo.NumHosts; h++ {
				hosts[p.ShardOfHost(h)]++
			}
			lo, hi := slices.Min(hosts), slices.Max(hosts)
			if hi-lo > unit {
				t.Errorf("%s: shards hold %d to %d hosts, more than one unit (%d) apart", c.topo.Name, lo, hi, unit)
			}
		}
	}
}
