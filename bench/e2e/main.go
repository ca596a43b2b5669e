// Command e2e is the repository's end-to-end benchmark: five named
// simulation cells, seven end-to-end metrics on each, and a per-layer
// ledger that says where a run's time went. README.md has the reasoning;
// BENCHMARK.json at the repository root names this command.
//
//	e2e -seed 1 [-out set.json] [-trace-out spans.json]   every workload
//	e2e -workload NAME -seed N -seconds S -trace 0|1       one workload, one JSON line last
//	e2e -compare A.json B.json                             two sets from -out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// stamp records where and on what a set of numbers was measured.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func newStamp() stamp {
	s := stamp{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}

// resultSet is what -out writes and -compare reads.
type resultSet struct {
	Stamp     stamp             `json:"stamp"`
	Seed      int64             `json:"seed"`
	Workloads []*workloadReport `json:"workloads"`
}

// driverLine is the last line of a single-workload run.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "run only this workload and end with one JSON line")
		seed      = flag.Int64("seed", 1, "seed of the generated trace and of the run")
		seconds   = flag.Float64("seconds", 12, "keep repeating each workload's run for this long")
		trace     = flag.Int("trace", 0, "with -workload: 1 reports the per-layer metrics, 0 the end-to-end ones")
		out       = flag.String("out", "", "without -workload: also write the result set here as JSON")
		traceOut  = flag.String("trace-out", "", "write the traced repetitions' spans here as JSON")
		compare   = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
		scratch   = flag.String("scratch", ".bench_build/e2e-scratch", "directory for probe files")
		child     = flag.Bool("child", false, "internal: run one repetition or the probes and print JSON")
		solo      = flag.Bool("solo", false, "internal: also run each spec alone")
		probes    = flag.Bool("probes", false, "internal: run the layer probes")
		probeTime = flag.Duration("probe-time", time.Second, "internal: host time per probe")
	)
	flag.Parse()

	var err error
	switch {
	case *child:
		err = childMain(*workload, *seed, *trace == 1, *solo, *probes, *probeTime, *scratch)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: e2e -compare A.json B.json")
		} else {
			err = compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		}
	default:
		var exe string
		if exe, err = os.Executable(); err != nil {
			break
		}
		r := execRunner(exe, *scratch, os.Stderr)
		if *workload != "" {
			err = driverMain(r, *workload, *seed, *seconds, *trace == 1, *traceOut)
		} else {
			err = fullMain(r, *seed, *seconds, *out, *traceOut)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func printStamp(s stamp, seed int64) {
	fmt.Printf("bench/e2e seed=%d commit=%s %s GOMAXPROCS=%d nproc=%d %s/%s cpu=%q\n",
		seed, s.Commit, s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.GOOS, s.GOARCH, s.CPUModel)
}

// driverMain measures one workload for about the given time and ends
// with the one-line JSON result the benchmark driver reads.
func driverMain(r *runner, name string, seed int64, seconds float64, traced bool, traceOut string) error {
	c, ok := cellByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	printStamp(newStamp(), seed)
	p := plan{budget: time.Duration(seconds * float64(time.Second))}
	if traced {
		// The per-layer run spends its time on the traced repetitions and
		// the probes; one untraced pass anchors trace.overhead_pct.
		p = plan{traced: true, probeTime: p.budget / 25}
	}
	w := r.measure(c, seed, p)
	w.print(os.Stdout)
	if err := writeSpans(traceOut, []*workloadReport{w}); err != nil {
		return err
	}

	got := w.EndToEnd
	if traced {
		got = w.PerLayer
	}
	line := driverLine{
		Correct: w.Failed == 0 && len(got) > 0, Attempted: w.Attempted, Failed: w.Failed,
		Metrics: map[string]driverValue{},
	}
	for name, m := range got {
		line.Metrics[name] = driverValue{Value: m.Median, Unit: m.Unit}
	}
	b, err := json.Marshal(line) // map keys are written sorted
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d runs failed", name, w.Failed, w.Attempted)
	}
	return nil
}

// fullMain runs every workload, untraced for the given time and then
// traced, and prints the whole ledger.
func fullMain(r *runner, seed int64, seconds float64, out, traceOut string) error {
	set := resultSet{Stamp: newStamp(), Seed: seed}
	printStamp(set.Stamp, seed)
	var shared map[string]float64
	byName := map[string]*workloadReport{}
	failed := 0
	for _, c := range cells {
		p := plan{
			budget: time.Duration(seconds * float64(time.Second)), traced: true,
			probeTime: time.Second, shared: shared,
		}
		if twin := byName[c.digestOf]; twin != nil && twin.EndToEnd != nil {
			p.twin = twin
		}
		w := r.measure(c, seed, p)
		w.print(os.Stdout)
		set.Workloads = append(set.Workloads, w)
		byName[c.name] = w
		failed += w.Failed
		if shared == nil {
			shared = w.shared
		}
	}
	if err := writeSpans(traceOut, set.Workloads); err != nil {
		return err
	}
	if out != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}

// writeSpans writes the spans the traced repetitions kept in memory.
func writeSpans(path string, ws []*workloadReport) error {
	if path == "" {
		return nil
	}
	spans := []span{}
	for _, w := range ws {
		spans = append(spans, w.spans...)
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
