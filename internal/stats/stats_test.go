package stats

import (
	"bytes"
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

// TestCollectorUtilization pins the bin edges of the sampled series. Its
// driver samples at k·w after every event before k·w and before any at
// it, so a byte delivered at exactly k·w is counted from sample k+1 on
// and lands in bin k; bytes delivered after the last sample — here at
// exactly the horizon — form the last bin.
func TestCollectorUtilization(t *testing.T) {
	const w = 10 * sim.Microsecond
	c := NewCollector()
	// 2 hosts at 100G: one host's full bin is 100e9/8 B/s × 10 µs = 125000 B.
	c.StartSeries(w, 4*w)     // sample 0 at t=0
	c.Delivered(125000)       // t=5µs: bin 0, one host's full bin
	c.Sample(sim.Time(w))     // sample 1
	c.Delivered(62500)        // t=10µs, at sample 1's instant: bin 1, a quarter of 2-host capacity
	c.Sample(sim.Time(2 * w)) // sample 2: nothing in bin 2
	c.Sample(sim.Time(3 * w)) // sample 3
	c.Delivered(250000)       // t=35µs: bin 3, both hosts full
	c.Sample(sim.Time(4 * w)) // sample 4, at the horizon
	c.Delivered(25000)        // t=40µs, at the horizon: the last bin
	u := c.UtilizationSeries(2, 100e9)
	want := []float64{0.5, 0.25, 0, 1.0, 0.1}
	if len(u) != len(want) {
		t.Fatalf("bins = %d, want %d", len(u), len(want))
	}
	for i := range want {
		if math.Abs(u[i]-want[i]) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", i, u[i], want[i])
		}
	}
	if c.DeliveredBytes() != 462500 {
		t.Fatalf("DeliveredBytes = %d", c.DeliveredBytes())
	}
}

func TestCollectorCounts(t *testing.T) {
	c := NewCollector()
	if c.Completed() != 0 {
		t.Fatalf("fresh collector completed=%d", c.Completed())
	}
	c.FlowDone(rec(10, 5, 5))
	c.FlowDone(rec(20, 5, 5))
	if c.Completed() != 2 {
		t.Fatalf("completed=%d, want 2", c.Completed())
	}
	// No series started: Delivered still counts, and there are no bins.
	c.Delivered(5)
	if c.DeliveredBytes() != 5 || c.UtilizationSeries(1, 1e9) != nil {
		t.Fatal("collector without a series lost bytes or made bins")
	}
}

// TestNilInstruments locks the uninstrumented contract: a collector
// without EnableInstruments registers nothing, hands out zero Counters
// that record nothing, and samples only its delivered bytes.
func TestNilInstruments(t *testing.T) {
	c := NewCollector()
	k := c.Counter("x")
	if k != (Counter{}) || c.Gauge("g") != (Counter{}) {
		t.Fatalf("uninstrumented collector handed out %+v", k)
	}
	c.GaugeFunc("f", func() int64 { return 1 })
	c.Add(k, 5) // must not panic
	c.StartSeries(sim.Microsecond, sim.Microsecond)
	c.Sample(sim.Time(sim.Microsecond))
	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil || buf.String() != "time_ps\n0\n1000000\n" {
		t.Errorf("uninstrumented CSV %q (%v)", buf.String(), err)
	}
	if counters, gauges := c.Values(); len(counters)+len(gauges) != 0 {
		t.Errorf("uninstrumented values %v %v", counters, gauges)
	}
}

// TestCounterGauge: each shard adds into its own slot, a column is the
// sum over shards, a gauge goes down, computed columns are read at each
// sample, and the CSV lists columns by name.
func TestCounterGauge(t *testing.T) {
	c := NewCollector()
	c.EnableInstruments()
	s1 := c.ForShard(1)
	n := c.Counter("b/count")
	g := c.Gauge("a/depth")
	computed := int64(7)
	c.GaugeFunc("c/computed", func() int64 { return computed })
	c.CounterFunc("d/total", func() int64 { return 11 })
	s2 := c.ForShard(2) // a child made after registration gets its slots too
	c.StartSeries(sim.Microsecond, 2*sim.Microsecond)
	c.Add(n, 1)
	s1.Add(n, 2)
	s2.Add(n, 3)
	s1.Add(g, 5)
	s2.Add(g, -2)
	computed = 9
	c.Sample(sim.Time(sim.Microsecond))

	var csv bytes.Buffer
	if err := c.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if want := "time_ps,a/depth,b/count,c/computed,d/total\n0,0,0,7,11\n1000000,3,6,9,11\n"; csv.String() != want {
		t.Errorf("CSV\n%s\nwant\n%s", csv.String(), want)
	}
}

// TestCollectorValues: the end-of-run values split counters from gauges,
// each list in name order whatever the registration order, and read
// computed columns and the shards' summed slots at the time of the call.
func TestCollectorValues(t *testing.T) {
	c := NewCollector()
	c.EnableInstruments()
	s1 := c.ForShard(1)
	b := c.Counter("b")
	a := c.Counter("a")
	g := c.Gauge("g")
	computed := int64(1)
	c.GaugeFunc("f", func() int64 { return computed })
	c.StartSeries(sim.Microsecond, sim.Microsecond)
	c.Add(b, 1)
	s1.Add(b, 2)
	c.Add(a, 1)
	s1.Add(g, 9)
	computed = 5
	counters, gauges := c.Values()
	if len(counters) != 2 || counters[0] != (NameValue{"a", 1}) || counters[1] != (NameValue{"b", 3}) {
		t.Errorf("counters %+v", counters)
	}
	if len(gauges) != 2 || gauges[0] != (NameValue{"f", 5}) || gauges[1] != (NameValue{"g", 9}) {
		t.Errorf("gauges %+v", gauges)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	for name, register := range map[string]func(c *Collector){
		"duplicate": func(c *Collector) { c.Counter("x"); c.Gauge("x") },
		"after StartSeries": func(c *Collector) {
			c.StartSeries(sim.Microsecond, sim.Microsecond)
			c.Counter("late")
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s registration did not panic", name)
				}
			}()
			c := NewCollector()
			c.EnableInstruments()
			register(c)
		}()
	}
}

// TestSamplerCadence drives the series the way netsim.Fabric.RunSynced
// does: the engine runs to one picosecond before each multiple of the
// interval, then the collector samples, so an event exactly on a sync
// instant is counted from the next row on.
func TestSamplerCadence(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCollector()
	c.EnableInstruments()
	k := c.Counter("a/pkts")
	const iv = 2 * sim.Microsecond
	for i := 1; i <= 10; i++ {
		eng.Schedule(sim.Time(i)*sim.Time(sim.Microsecond), func() { c.Add(k, 1) })
	}
	c.StartSeries(iv, 10*sim.Microsecond)
	for at := sim.Time(iv); at <= sim.Time(10*sim.Microsecond); at = at.Add(iv) {
		eng.Run(at - 1)
		c.Sample(at)
	}
	eng.Run(sim.Time(10 * sim.Microsecond))

	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	// Events at 1..9 µs precede the rows; the one at 10 µs is in none.
	want := "time_ps,a/pkts\n0,0\n2000000,1\n4000000,3\n6000000,5\n8000000,7\n10000000,9\n"
	if buf.String() != want {
		t.Errorf("CSV\n%s\nwant\n%s", buf.String(), want)
	}
	if counters, _ := c.Values(); counters[0].Value != 10 {
		t.Errorf("end-of-run a/pkts %d, want 10", counters[0].Value)
	}
}

// TestSamplerTickAllocs: a sample appends its row to one slab of values,
// so a series sized for its run by StartSeries allocates nothing per
// sample, and one that outgrows its size allocates none per sample on
// average.
func TestSamplerTickAllocs(t *testing.T) {
	for _, tc := range []struct {
		ticks   int
		horizon sim.Duration
	}{{100, 101 * sim.Microsecond}, {4000, sim.Microsecond}} { // AllocsPerRun adds a warm-up call
		c := NewCollector()
		c.EnableInstruments()
		k := c.Counter("a/pkts")
		c.GaugeFunc("b/load", func() int64 { return 5 })
		c.StartSeries(sim.Microsecond, tc.horizon)
		tick := sim.Time(0)
		allocs := testing.AllocsPerRun(tc.ticks, func() {
			c.Add(k, 1)
			tick = tick.Add(sim.Microsecond)
			c.Sample(tick)
		})
		if allocs != 0 {
			t.Errorf("horizon %v: a sample made %v allocations on average, want 0", tc.horizon, allocs)
		}
		if counters, _ := c.Values(); counters[0].Value != int64(c.Samples()-1) {
			t.Errorf("horizon %v: a/pkts %d after %d samples", tc.horizon, counters[0].Value, c.Samples())
		}
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
