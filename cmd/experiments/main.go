// Command experiments regenerates the dcPIM paper's evaluation artifacts
// (every table and figure of §4), plus extensions such as the fault
// resilience grid. Each experiment prints the rows or series the paper
// plots.
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
//	experiments -benchjson bench/         # machine-readable substrate benchmarks
//	experiments -run fig3a -metrics out/  # per-run CSV series + JSON reports
//	experiments -run fig3b -cpuprofile cpu.pprof
//	experiments -run ckpt -checkpoint 100us -checkpoint-dir ck/   # periodic snapshots
//	experiments -resume ck/ckpt-fattree-128-seed1.ck0002.dcpimck  # verified replay + continue
//	experiments -bisect ckA,ckB           # first diverging event between two snapshot dirs
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dcpim/internal/experiments"
	"dcpim/internal/sim"
)

func main() {
	var (
		run        = flag.String("run", "", "experiment id to run, or 'all'")
		list       = flag.Bool("list", false, "list experiments")
		seed       = flag.Int64("seed", 1, "random seed")
		scale      = flag.Float64("scale", 1, "horizon scale factor (1 = paper fidelity)")
		hosts      = flag.Int("hosts", 0, "topology size override (0 = paper size)")
		parallel   = flag.Int("parallel", 0, "concurrent simulations in sweeps (0 = GOMAXPROCS, 1 = serial); output is identical at any setting")
		shards     = flag.Int("shards", 0, "split each fabric into this many barrier-synchronized shards (0 = auto: serial below 256 hosts, one shard per pod or rack above; 1 = serial); output is identical at any setting")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		metricsDir = flag.String("metrics", "", "write per-run telemetry (CSV time series + JSON report) into this directory")
		benchjson  = flag.String("benchjson", "", "run the substrate benchmark suite and write BENCH_<name>.json files into this directory, then exit")
		benchcheck = flag.String("benchcheck", "", "re-run the substrate benchmarks against the baseline BENCH_*.json files in this directory and exit nonzero on a >10% ns/op regression")
		matchers   = flag.String("matchers", "", "restrict the matchers experiment to these comma-separated registered matchers (empty = all)")
		ckptEvery  = flag.Duration("checkpoint", 0, "snapshot instrumented runs every this much simulated time (e.g. 100us); pair with -checkpoint-dir to keep the files")
		ckptDir    = flag.String("checkpoint-dir", "", "write snapshot files (*.dcpimck) into this directory")
		resume     = flag.String("resume", "", "resume (verified replay) a ckpt-experiment snapshot file to its horizon, then exit")
		bisect     = flag.String("bisect", "", "compare two snapshot directories 'dirA,dirB' and localize the first diverging event, then exit")
	)
	flag.Parse()
	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "-shards %d: want 0 (auto), 1 (serial) or a shard count\n", *shards)
		os.Exit(2)
	}

	if *benchjson != "" {
		if err := experiments.WriteBenchJSON(*benchjson, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *benchcheck != "" {
		if err := experiments.CheckBenchJSON(*benchcheck, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list || (*run == "" && *resume == "" && *bisect == "") {
		fmt.Println("experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-9s %s\n", e.ID, e.Title)
		}
		if *run == "" {
			fmt.Println("\nrun one with: experiments -run <id>   (or -run all)")
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(1)
		}
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint-dir: %v\n", err)
			os.Exit(1)
		}
	}

	opts := experiments.Options{
		Seed: *seed, Scale: *scale, Hosts: *hosts, Workers: *parallel,
		Shards: *shards, MetricsDir: *metricsDir, Matchers: *matchers,
		// Simulated time is picoseconds; time.Duration is nanoseconds.
		CheckpointEvery: sim.Duration(ckptEvery.Nanoseconds()) * 1000,
		CheckpointDir:   *ckptDir,
	}

	if *bisect != "" {
		dirs := strings.SplitN(*bisect, ",", 2)
		if len(dirs) != 2 {
			fmt.Fprintln(os.Stderr, "-bisect wants two snapshot directories: dirA,dirB")
			os.Exit(2)
		}
		if err := experiments.BisectDirs(dirs[0], dirs[1], os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "bisect: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *resume != "" {
		if err := experiments.ResumeFile(opts, *resume, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "resume: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var todo []experiments.Experiment
	if *run == "all" {
		todo = experiments.All()
	} else {
		e, ok := experiments.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *run)
			os.Exit(2)
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
			os.Exit(1)
		}
		fmt.Printf("(%s wall time)\n", elapsed().Round(time.Millisecond))
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}
