package experiments

import "dcpim/internal/topo"

// leafSpineFor builds the evaluation leaf-spine at the paper's size (144
// hosts) or a scaled-down variant for quick runs: callers pass
// Options.Hosts (0 = full size).
func leafSpineFor(hosts int) *topo.Topology {
	cfg := leafSpineConfigFor(hosts)
	return cfg.Build()
}

func leafSpineConfigFor(hosts int) topo.LeafSpineConfig {
	switch {
	case hosts == 0 || hosts >= 144:
		return topo.DefaultLeafSpine()
	case hosts <= 8:
		return topo.SmallLeafSpine()
	case hosts <= 32:
		c := topo.DefaultLeafSpine()
		c.Racks, c.HostsPerRack, c.Spines = 2, 16, 2
		c.Name = "leafspine-32"
		return c
	default:
		c := topo.DefaultLeafSpine()
		c.Racks = (hosts + 15) / 16
		c.Name = "leafspine-custom"
		return c
	}
}

// oversubFor is the 2:1 oversubscribed variant at the requested scale.
func oversubFor(hosts int) *topo.Topology {
	c := leafSpineConfigFor(hosts)
	c.SpineRate /= 2
	c.Name += "-oversub2"
	return c.Build()
}

// fatTreeFor builds the FatTree tier covering the requested host count:
// k=4 (16 hosts) for quick runs, k=8 (128), k=12 (432, the scale grid's
// first auto-sharded rung), the paper's k=16 (1024, also the 0-default),
// then the hyperscale rungs — k=32 (8192) and the 3-tier k=48-class tree
// (27648). The mapping is monotone in hosts and is part of the checkpoint
// contract: ckptSpecFromMeta rebuilds specs from a snapshot's host count
// through this function.
func fatTreeFor(hosts int) *topo.Topology {
	switch {
	case hosts != 0 && hosts <= 16:
		return topo.SmallFatTree().Build()
	case hosts != 0 && hosts <= 128:
		c := topo.DefaultFatTree()
		c.K = 8
		c.Name = "fattree-128"
		return c.Build()
	case hosts != 0 && hosts <= 432:
		return topo.FatTreeK(12).Build()
	case hosts == 0 || hosts <= 1024:
		return topo.DefaultFatTree().Build()
	case hosts <= 8192:
		return topo.HyperscaleFatTree().Build()
	default:
		return topo.MegaFatTree().Build()
	}
}
