package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RunMany executes the given runs on a pool of workers goroutines and
// returns their results in input order. workers <= 0 means one worker
// per CPU (runtime.GOMAXPROCS(0)); workers == 1 (or a single spec) is
// the plain serial loop. Each run itself uses one goroutine per shard
// (RunSpec.Shards: 0 = auto, 1 = serial), so a sweep of sharded specs runs
// up to workers × shards goroutines — Options.workers divides the pool by
// an explicit shard count to keep that product near GOMAXPROCS, and
// leaves it alone for auto.
//
// Determinism contract: every simulation is hermetic — it owns its engine,
// RNG, fabric and collector, all seeded from the spec alone — so each
// RunResult is a pure function of its RunSpec. Parallel execution therefore
// yields exactly the results of the serial loop, in the same order; only
// wall-clock time changes. The one shared structure, the packet free pool,
// is a sync.Pool holding only zeroed packets, so pool scheduling cannot
// leak state between runs. Experiments exploit this by batching independent
// probes (sweep points, bisection iterations) through RunMany and printing
// from the ordered results, which keeps their output byte-identical to a
// serial run at any worker count.
func RunMany(specs []RunSpec, workers int) []RunResult {
	results := make([]RunResult, len(specs))
	forEachIndex(len(specs), workers, func(i int) {
		results[i] = Run(specs[i])
	})
	return results
}

// forEachIndex invokes fn(i) for every i in [0, n) on a pool of workers
// goroutines (<= 0 means GOMAXPROCS; <= 1 is a plain serial loop). It is
// the execution core of RunMany and matcherSweep: fn must be a pure
// function of i writing only to its own slot, which makes the result
// independent of the worker count and scheduling — parallelism changes
// wall-clock time only.
func forEachIndex(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	// Each worker owns whole cells: pool workers never share a fabric or RNG.
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
