// Command experiments regenerates the dcPIM paper's evaluation artifacts
// (every table and figure of §4), plus extensions such as the fault
// resilience grid. Each experiment prints the rows or series the paper
// plots. A figure is a list of cells, one simulation each; -metrics and
// -checkpoint write every cell's files under its own label. To run one
// simulation of your own, build an experiments.RunSpec and call
// experiments.Run or RunMany (see ExampleRunMany).
//
// Usage:
//
//	experiments -list
//	experiments -run fig3a
//	experiments -run all -scale 0.25      # quicker, lower-fidelity pass
//	experiments -run fig5cd -hosts 16     # scaled-down topology
//	experiments -run fig3a -parallel 8    # sweep probes on 8 workers
//	experiments -run fig5cd               # 1024 hosts: auto-sharded, one shard per pod
//	experiments -run fig5cd -shards 1     # the same run on one engine, byte-identical output
//	experiments -run faults               # scripted link/switch/host faults
//	experiments -run matchers             # matcher lab: registry-wide sweep
//	experiments -run matchers -matchers pim,budget-pim -metrics out/
//	experiments -run fig3a -metrics out/  # per-cell CSV series + JSON reports
//	experiments -run fig3b -cpuprofile cpu.pprof
//	experiments -run fig3b -checkpoint 100us -checkpoint-dir ckA/  # per-cell snapshot streams
//	diff -r ckA/ ckB/                     # empty when two such runs agree
//
// Snapshots are assertions, not restore points, written as text: to check
// a stored stream, run the same command into a fresh directory and diff
// the two. The differing file with the lowest index is a label's first
// diverging snapshot, and its first journal hunk the first diverging event.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"dcpim/internal/experiments"
	"dcpim/internal/sim"
)

func main() { os.Exit(runMain()) }

// runMain does the work of main and returns the exit code, so the deferred
// profile writers run on every path, a failing run's included.
func runMain() (code int) {
	var (
		run        = flag.String("run", "", "experiment id to run, or 'all'")
		list       = flag.Bool("list", false, "list experiments")
		seed       = flag.Int64("seed", 1, "random seed")
		scale      = flag.Float64("scale", 1, "horizon scale factor (1 = paper fidelity)")
		hosts      = flag.Int("hosts", 0, "topology size override (0 = paper size)")
		parallel   = flag.Int("parallel", 0, "concurrent simulations in sweeps (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
		shards     = flag.Int("shards", 0, "split each fabric into this many barrier-synchronized shards (0 = auto: one shard per 64 hosts, at most one per pod or rack, serial below 128 hosts; 1 = serial); output is identical at any setting")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		metricsDir = flag.String("metrics", "", "write per-run telemetry (CSV time series + JSON report) into this directory")
		matchers   = flag.String("matchers", "", "restrict the matchers experiment to these comma-separated registered matchers (empty = all)")
		ckptEvery  = flag.Duration("checkpoint", 0, "snapshot every figure's runs every this much simulated time (e.g. 100us); needs -checkpoint-dir")
		ckptDir    = flag.String("checkpoint-dir", "", "write snapshot files (*.dcpimck) into this directory; needs -checkpoint")
	)
	flag.Parse()
	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "-shards %d: want 0 (auto), 1 (serial) or a shard count\n", *shards)
		return 2
	}
	if !(*scale > 0) {
		fmt.Fprintf(os.Stderr, "-scale %v: want a positive horizon factor (1 = paper fidelity)\n", *scale)
		return 2
	}
	if *hosts < 0 {
		fmt.Fprintf(os.Stderr, "-hosts %d: want 0 (paper size) or a host count\n", *hosts)
		return 2
	}
	// A cadence with nowhere to write captures every snapshot and throws
	// it away; a directory with no cadence stays empty.
	if *ckptEvery < 0 || (*ckptEvery > 0) != (*ckptDir != "") {
		fmt.Fprintln(os.Stderr, "-checkpoint <cadence> and -checkpoint-dir <dir> go together: a positive cadence takes the snapshots, the directory keeps them")
		return 2
	}

	if *list || *run == "" {
		fmt.Println("experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-9s %s\n", e.ID, e.Title)
		}
		if *run == "" {
			fmt.Println("\nrun one with: experiments -run <id>   (or -run all)")
		}
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeHeapProfile(*memprofile); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				code = 1
			}
		}()
	}

	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			return 1
		}
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint-dir: %v\n", err)
			return 1
		}
	}

	opts := experiments.Options{
		Seed: *seed, Scale: *scale, Hosts: *hosts, Workers: *parallel,
		Shards: *shards, MetricsDir: *metricsDir, Matchers: *matchers,
		// Simulated time is picoseconds; time.Duration is nanoseconds.
		CheckpointEvery: sim.Duration(ckptEvery.Nanoseconds()) * 1000,
		CheckpointDir:   *ckptDir,
	}

	var todo []experiments.Experiment
	if *run == "all" {
		todo = experiments.All()
	} else {
		e, ok := experiments.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *run)
			return 2
		}
		todo = []experiments.Experiment{e}
	}

	// The effective pool is the flag value after the shard clamp
	// (workers × explicit shards ≤ GOMAXPROCS) — what actually bounds
	// sweep concurrency, which the raw -parallel value no longer shows.
	// An auto count depends on each experiment's topology, so the banner
	// can only name the policy.
	if n := opts.EffectiveWorkers(); *parallel != 0 || *shards > 1 {
		per := "auto"
		if *shards != 0 {
			per = strconv.Itoa(*shards)
		}
		fmt.Printf("(sweep pool: %d workers × %s shards on GOMAXPROCS %d)\n",
			n, per, runtime.GOMAXPROCS(0))
	}

	for i, e := range todo {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		elapsed := experiments.WallTimer()
		if err := e.Run(opts, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		fmt.Printf("(%s wall time)\n", elapsed().Round(time.Millisecond))
	}
	return 0
}

// writeHeapProfile writes a heap profile, after a GC, to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
