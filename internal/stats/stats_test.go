package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"dcpim/internal/sim"
)

func rec(size int64, fct, opt sim.Duration) FlowRecord {
	return FlowRecord{Size: size, Arrival: 0, Finish: sim.Time(fct), Optimal: opt}
}

func TestSlowdown(t *testing.T) {
	r := rec(1000, 20*sim.Microsecond, 10*sim.Microsecond)
	if got := r.Slowdown(); got != 2 {
		t.Fatalf("Slowdown = %v, want 2", got)
	}
	if got := (FlowRecord{Optimal: 0}).Slowdown(); got != 1 {
		t.Fatalf("zero-optimal slowdown = %v, want 1", got)
	}
	if r.FCT() != 20*sim.Microsecond {
		t.Fatalf("FCT = %v", r.FCT())
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(xs, 0.5); p != 5 {
		t.Fatalf("P50 = %v, want 5", p)
	}
	if p := Percentile(xs, 0.99); p != 10 {
		t.Fatalf("P99 = %v, want 10", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("P0 = %v, want 1", p)
	}
	if p := Percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty percentile = %v, want 0", p)
	}
	if p := Percentile([]float64{7}, 0.999); p != 7 {
		t.Fatalf("single-element P99.9 = %v, want 7", p)
	}
	if p := Percentile(xs, 1.5); p != 10 {
		t.Fatalf("p>1 percentile = %v, want max", p)
	}
	if p := Percentile(xs, math.NaN()); p != 1 {
		t.Fatalf("NaN percentile = %v, want min", p)
	}
}

func TestSummarize(t *testing.T) {
	records := []FlowRecord{
		rec(100, 10, 10), rec(100, 20, 10), rec(100, 30, 10),
		rec(9999, 100, 10),
	}
	all := Summarize(records, nil)
	if all.Count != 4 {
		t.Fatalf("Count = %d", all.Count)
	}
	if math.Abs(all.Mean-4) > 1e-9 { // (1+2+3+10)/4
		t.Fatalf("Mean = %v, want 4", all.Mean)
	}
	if all.Max != 10 {
		t.Fatalf("Max = %v", all.Max)
	}
	small := Summarize(records, func(r FlowRecord) bool { return r.Size < 1000 })
	if small.Count != 3 || small.Max != 3 {
		t.Fatalf("filtered summary = %+v", small)
	}
	empty := Summarize(nil, nil)
	if empty.Count != 0 || empty.String() != "-" {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestBuckets(t *testing.T) {
	bdp := int64(72500)
	buckets := DefaultBuckets(bdp)
	if len(buckets) != 6 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	records := []FlowRecord{
		rec(100, 10, 10),      // short
		rec(bdp, 10, 10),      // boundary: Hi exclusive → second bucket
		rec(5*bdp, 30, 10),    // 4–16 BDP
		rec(1000*bdp, 50, 10), // >256 BDP
	}
	got := BucketSlowdowns(records, buckets)
	if got[0].Summary.Count != 1 {
		t.Fatalf("short bucket count = %d, want 1", got[0].Summary.Count)
	}
	if got[1].Summary.Count != 1 {
		t.Fatalf("1-4BDP bucket count = %d, want 1", got[1].Summary.Count)
	}
	if got[2].Summary.Count != 1 {
		t.Fatalf("4-16BDP count = %d", got[2].Summary.Count)
	}
	if got[5].Summary.Count != 1 {
		t.Fatalf(">256BDP count = %d", got[5].Summary.Count)
	}
	// The original buckets are untouched.
	if buckets[0].Summary.Count != 0 {
		t.Fatal("BucketSlowdowns mutated input")
	}
}

func TestCollectorUtilization(t *testing.T) {
	c := NewCollector(10 * sim.Microsecond)
	// 2 hosts at 100G: one bin at full rate = 2 × 125 GB/s × 10 µs = 2.5e6 B... per host 125000 B per bin.
	c.Delivered(sim.Time(5*sim.Microsecond), 125000)  // bin 0: one host's full bin
	c.Delivered(sim.Time(15*sim.Microsecond), 62500)  // bin 1: quarter of 2-host capacity
	c.Delivered(sim.Time(35*sim.Microsecond), 250000) // bin 3: both hosts full
	u := c.UtilizationSeries(2, 100e9)
	if len(u) != 4 {
		t.Fatalf("bins = %d, want 4", len(u))
	}
	want := []float64{0.5, 0.25, 0, 1.0}
	for i := range want {
		if math.Abs(u[i]-want[i]) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", i, u[i], want[i])
		}
	}
	if c.DeliveredBytes() != 437500 {
		t.Fatalf("DeliveredBytes = %d", c.DeliveredBytes())
	}
}

func TestCollectorCounts(t *testing.T) {
	c := NewCollector(0)
	if c.Completed() != 0 {
		t.Fatalf("fresh collector completed=%d", c.Completed())
	}
	c.FlowDone(rec(10, 5, 5))
	c.FlowDone(rec(20, 5, 5))
	if c.Completed() != 2 {
		t.Fatalf("completed=%d, want 2", c.Completed())
	}
	// binWidth 0: Delivered must not panic or allocate bins.
	c.Delivered(100, 5)
	if c.DeliveredBytes() != 5 {
		t.Fatal("delivered bytes lost with zero bin width")
	}
}

// Property: Percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			xs[i] = math.Abs(v)
		}
		sort.Float64s(xs)
		pa := math.Mod(math.Abs(a), 1)
		pb := math.Mod(math.Abs(b), 1)
		if pa > pb {
			pa, pb = pb, pa
		}
		qa, qb := Percentile(xs, pa), Percentile(xs, pb)
		return qa <= qb && qa >= xs[0] && qb <= xs[len(xs)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Summarize mean lies within [min, max] of the slowdowns.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(fcts []uint32) bool {
		var records []FlowRecord
		for _, v := range fcts {
			records = append(records, rec(100, sim.Duration(v%100000+1), 100))
		}
		s := Summarize(records, nil)
		if len(records) == 0 {
			return s.Count == 0
		}
		return s.Mean <= s.Max && s.P50 <= s.P99 && s.P99 <= s.P999 && s.P999 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
