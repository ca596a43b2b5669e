package main

import (
	"path"
	"strings"
)

// Layer names used by every *.cpu_share metric. A layer is a package
// under internal/ (split by file where one package holds two layers), the
// Go runtime's collector, or "other".
const (
	layerQueue     = "sim.queue"
	layerGroup     = "sim.group"
	layerForward   = "netsim.forward"
	layerShard     = "netsim.shard"
	layerCore      = "core"
	layerProtocols = "protocols"
	layerHarness   = "experiments"
	layerGC        = "runtime.gc"
	layerOther     = "other"
)

// layerRule maps a package (and optionally one of its files) to a layer.
// This is the one table that says which code belongs to which layer;
// rules are tried in order and a pkg also matches its subpackages.
type layerRule struct {
	pkg, file, layer string
}

var layerRules = []layerRule{
	{"dcpim/internal/sim", "group.go", layerGroup},
	{"dcpim/internal/sim", "barrier.go", layerGroup},
	{"dcpim/internal/sim", "", layerQueue}, // engine, heap, ladder, timers
	{"dcpim/internal/netsim", "shard.go", layerShard},
	{"dcpim/internal/netsim", "", layerForward},
	{"dcpim/internal/packet", "", layerForward}, // packet pool
	{"dcpim/internal/topo", "", layerForward},   // per-hop route lookup
	{"dcpim/internal/core", "", layerCore},
	{"dcpim/internal/protocols", "", layerProtocols},
	// The harness on the run's path: digest observer, collector, sampler.
	{"dcpim/internal/experiments", "", layerHarness},
	{"dcpim/internal/stats", "", layerHarness},
	{"dcpim/internal/metrics", "", layerHarness},
	{"dcpim/internal/workload", "", layerHarness},
	// Collector work, wherever it runs: background workers, assists
	// inside an allocating layer, sweeping.
	{"runtime", "mgc.go", layerGC},
	{"runtime", "mgcmark.go", layerGC},
	{"runtime", "mgcwork.go", layerGC},
	{"runtime", "mgcsweep.go", layerGC},
	{"runtime", "mgcpacer.go", layerGC},
	{"runtime", "mgcscavenge.go", layerGC},
	{"runtime", "mbitmap.go", layerGC},
	{"runtime", "mwbbuf.go", layerGC},
	{"runtime", "mbarrier.go", layerGC},
}

// funcPackage returns the import path of a pprof function name:
// "dcpim/internal/sim.(*Engine).Step" -> "dcpim/internal/sim".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func layerOf(f frame) (string, bool) {
	pkg, file := funcPackage(f.Func), path.Base(f.File)
	for _, r := range layerRules {
		match := pkg == r.pkg || strings.HasPrefix(pkg, r.pkg+"/")
		if match && (r.file == "" || r.file == file) {
			return r.layer, true
		}
	}
	return "", false
}

// attribute charges every sample to the layer of its leaf frame. A leaf
// that belongs to no layer (memmove, mallocgc, map access, the scheduler)
// is charged to the nearest caller that does, so a layer pays for the
// runtime helpers it calls; a stack with no layer on it is "other".
// It returns the sampled CPU seconds of each layer.
func attribute(p *profile) map[string]float64 {
	seconds := map[string]float64{}
	for _, s := range p.Samples {
		layer := layerOther
		for _, f := range s.Stack {
			if l, ok := layerOf(f); ok {
				layer = l
				break
			}
		}
		seconds[layer] += float64(s.Value) / 1e9
	}
	return seconds
}
