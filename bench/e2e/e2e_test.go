package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables in this
// package in step: same workloads with the same reasons, same metrics with
// the same units, directions and bounds, in the same order.
func TestBenchmarkJSONMatches(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(cells) {
		t.Fatalf("BENCHMARK.json has %d workloads, cells has %d", len(bj.Workloads), len(cells))
	}
	for i, w := range bj.Workloads {
		if w.Name != cells[i].name || w.Why != cells[i].why {
			t.Errorf("workload %d: BENCHMARK.json {%q %q}, cells {%q %q}", i, w.Name, w.Why, cells[i].name, cells[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the table has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table has %d", len(bj.PerLayer), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: outside the benchmark contract's alphabet", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// inProcess runs repetitions as direct calls on cells shrunk to a fifth
// of their horizon, and the probes for a few milliseconds each.
func inProcess(scratch string) *runner {
	return &runner{
		cell: func(c cell, seed int64, traced, solo bool) (*runResult, error) {
			c.horizon = c.horizon.Scale(0.2)
			return runCell(c, seed, traced, solo), nil
		},
		probes: func(d time.Duration, seed int64) (probeValues, error) {
			return runProbes(d, seed, scratch)
		},
	}
}

// TestSmallRun drives two workloads end to end, in process and at a small
// scale: every metric BENCHMARK.json names is printed exactly once with a
// finite value, the CPU shares sum to 1, and the sharded FatTree reproduces
// the serial one's digests.
func TestSmallRun(t *testing.T) {
	bj := readBenchmarkJSON(t)
	r := inProcess(t.TempDir())
	var shared map[string]float64
	for _, name := range []string{"ls144-dcpim", "ft1024-dcpim-shards2"} {
		c, ok := cellByName(name)
		if !ok {
			t.Fatalf("no cell %s", name)
		}
		if c.shards > 2 {
			t.Fatalf("%s runs %d shards; the reference box has 2 cores", name, c.shards)
		}
		w := r.measure(c, 1, plan{traced: true, probeTime: time.Millisecond, shared: shared})
		shared = w.shared
		var out bytes.Buffer
		w.print(&out)
		if w.Failed != 0 {
			t.Fatalf("%s: %d of %d runs failed:\n%s", name, w.Failed, w.Attempted, out.String())
		}
		// shards2's own digests equal its twin's, or measure would have
		// counted a failure; it ran the twin itself.
		if c.digestOf != "" && w.Attempted != 3*c.subSeeds {
			t.Errorf("%s: %d runs, want %d (twin, untraced, traced per sub-seed)", name, w.Attempted, 3*c.subSeeds)
		}

		lines := strings.Split(out.String(), "\n")
		count := func(metric string) int {
			n := 0
			for _, l := range lines {
				f := strings.Fields(l)
				if len(f) > 1 && f[1] == metric {
					n++
				}
			}
			return n
		}
		var shares float64
		check := func(metric string, got map[string]measured) {
			m, ok := got[metric]
			if !ok {
				t.Errorf("%s: %s not reported", name, metric)
				return
			}
			if math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
				t.Errorf("%s: %s = %v", name, metric, m.Median)
			}
			if n := count(metric); n != 1 {
				t.Errorf("%s: %s printed %d times", name, metric, n)
			}
			if strings.HasSuffix(metric, "cpu_share") {
				shares += m.Median
			}
		}
		for _, m := range bj.EndToEnd {
			check(m.Name, w.EndToEnd)
		}
		for _, m := range bj.PerLayer {
			check(m.Name, w.PerLayer)
		}
		if math.Abs(shares-1) > 0.01 {
			t.Errorf("%s: CPU shares sum to %v", name, shares)
		}
	}
}

// TestQuartilesMatchPython pins summarize to statistics.quantiles(n=4),
// the estimator the benchmark driver uses on the same values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 2}, 1.5, 3, 4.5},
	} {
		s := summarize(tc.xs)
		if s.Q1 != tc.q1 || s.Median != tc.q2 || s.Q3 != tc.q3 {
			t.Errorf("summarize(%v) = %v %v %v, want %v %v %v", tc.xs, s.Q1, s.Median, s.Q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "pkts_per_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	noisy := func(m float64) summary { return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1} }
	for _, tc := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{lower, steady(1), steady(1.05), "ok"},
		{lower, steady(1), steady(1.2), "worse"},
		{lower, steady(1), steady(0.5), "ok"},
		{higher, steady(1), steady(0.8), "worse"},
		{higher, steady(1), steady(1.5), "ok"},
		{lower, steady(1), noisy(1.2), "unresolved"},
	} {
		if got := verdictOf(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.a.Median, tc.b.Median, got, tc.want)
		}
	}
}

// fakeRun is a plausible repetition for the checking tests.
func fakeRun(c cell, seed int64, digest string) *runResult {
	return &runResult{
		Cell: c.name, Seed: seed, SetupS: 0.01, WallS: 1, PeakRSSMB: 10,
		Digests: []string{digest}, Events: 100, Data: 10, Ctrl: 5,
		Completed: 3, Records: 3, OfferedB: 100, DeliveredB: 90,
		ShortP99: 1.5, MeanSlowdown: 1.2,
	}
}

// TestChecksFailTheWorkload feeds measure runs whose outputs are wrong and
// expects each to be counted as a failed operation.
func TestChecksFailTheWorkload(t *testing.T) {
	serial, _ := cellByName("ft1024-dcpim")
	sharded, _ := cellByName("ft1024-dcpim-shards2")
	calls := 0
	for _, tc := range []struct {
		name string
		cell cell
		run  func(c cell, seed int64) (*runResult, error)
	}{
		{"no flows complete", serial, func(c cell, seed int64) (*runResult, error) {
			r := fakeRun(c, seed, "d")
			r.Completed = 0
			return r, nil
		}},
		{"child dies", serial, func(c cell, seed int64) (*runResult, error) {
			return nil, os.ErrDeadlineExceeded
		}},
		{"repetitions disagree", serial, func(c cell, seed int64) (*runResult, error) {
			calls++
			return fakeRun(c, seed, string(rune('a'+calls))), nil
		}},
		{"shards do not reproduce serial", sharded, func(c cell, seed int64) (*runResult, error) {
			return fakeRun(c, seed, c.name), nil
		}},
	} {
		r := &runner{cell: func(c cell, seed int64, traced, solo bool) (*runResult, error) {
			return tc.run(c, seed)
		}}
		w := r.measure(tc.cell, 1, plan{budget: time.Nanosecond})
		if w.Failed == 0 {
			t.Errorf("%s: no failed run among %d", tc.name, w.Attempted)
		}
	}

	r := &runner{cell: func(c cell, seed int64, traced, solo bool) (*runResult, error) {
		return fakeRun(c, seed, "same"), nil
	}}
	if w := r.measure(sharded, 1, plan{budget: time.Nanosecond}); w.Failed != 0 || len(w.EndToEnd) != len(endToEnd) {
		t.Errorf("good runs: %d failed, %d end-to-end metrics: %v", w.Failed, len(w.EndToEnd), w.Failures)
	}
}
