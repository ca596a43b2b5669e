package metrics

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dcpim/internal/sim"
)

// TestNilInstruments locks the disabled-telemetry contract: every
// instrument obtained from a nil registry no-ops without panicking.
func TestNilInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 0 {
		t.Errorf("nil gauge value = %d", g.Value())
	}
	h := r.Histogram("h")
	h.Observe(1.5)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Error("nil histogram not inert")
	}
	r.GaugeFunc("f", func() float64 { return 1 })
	if s := NewSampler(r, sim.Microsecond); s != nil {
		t.Error("sampler over nil registry should be nil")
	}
	var s *Sampler
	s.SampleAt(0)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil || buf.Len() != 0 {
		t.Error("nil sampler wrote output")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts")
	c.Add(10)
	c.Inc()
	if c.Value() != 11 {
		t.Errorf("counter = %d, want 11", c.Value())
	}
	g := r.Gauge("depth")
	g.Set(100)
	g.Add(-40)
	if g.Value() != 60 {
		t.Errorf("gauge = %d, want 60", g.Value())
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Gauge("x")
}

// TestHistogramQuantileErrorBound is the satellite-mandated accuracy
// test: for several value distributions, every estimated quantile must
// be within 5% relative error of the exact empirical quantile.
func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dists := map[string]func() float64{
		"uniform":   func() float64 { return 1 + 9999*rng.Float64() },
		"exp":       func() float64 { return rng.ExpFloat64() * 1e6 },
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64()*2 + 5) },
		"heavy":     func() float64 { return math.Pow(1/(1e-9+rng.Float64()), 1.3) },
	}
	quantiles := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for name, draw := range dists {
		t.Run(name, func(t *testing.T) {
			h := newHistogram(name)
			vals := make([]float64, 20000)
			for i := range vals {
				vals[i] = draw()
				h.Observe(vals[i])
			}
			sort.Float64s(vals)
			for _, q := range quantiles {
				rank := int(math.Ceil(q * float64(len(vals))))
				if rank < 1 {
					rank = 1
				}
				exact := vals[rank-1]
				got := h.Quantile(q)
				if relErr := math.Abs(got-exact) / exact; relErr > 0.05 {
					t.Errorf("q=%v: estimate %v vs exact %v (rel err %.2f%%)", q, got, exact, relErr*100)
				}
			}
		})
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := newHistogram("h")
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}

	h.Observe(42)
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		got := h.Quantile(q)
		if math.Abs(got-42)/42 > 0.05 {
			t.Errorf("single element: Quantile(%v) = %v", q, got)
		}
	}
	if h.Min() != 42 || h.Max() != 42 || h.Mean() != 42 {
		t.Errorf("single element: min/max/mean = %v/%v/%v", h.Min(), h.Max(), h.Mean())
	}

	// Non-positive values go to the zeros bucket and report as the exact
	// minimum at low quantiles.
	z := newHistogram("z")
	z.Observe(-3)
	z.Observe(0)
	z.Observe(10)
	if got := z.Quantile(0.01); got != -3 {
		t.Errorf("zeros-bucket quantile = %v, want -3", got)
	}
	if z.Count() != 3 || z.Min() != -3 || z.Max() != 10 {
		t.Errorf("zeros histogram stats wrong: %+v", z.Summary())
	}
}

func TestHistogramSummaryOrdering(t *testing.T) {
	r := NewRegistry()
	hb := r.Histogram("b")
	ha := r.Histogram("a")
	ha.Observe(1)
	hb.Observe(2)
	sums := r.HistogramSummaries()
	if len(sums) != 2 || sums[0].Name != "a" || sums[1].Name != "b" {
		t.Errorf("summaries not name-sorted: %+v", sums)
	}
}

// TestSamplerTickAllocs: a tick appends its row to the sampler's one slab
// of values, so over many ticks the only allocations are that slab's and
// the time column's growth — none per tick on average — where a row per
// tick would cost one each; a sampler reserved for its ticks allocates
// nothing at all.
func TestSamplerTickAllocs(t *testing.T) {
	for _, tc := range []struct {
		ticks    int
		reserved bool
	}{{4000, false}, {100, true}} {
		r := NewRegistry()
		c := r.Counter("a/pkts")
		g := r.Gauge("b/depth")
		r.GaugeFunc("c/load", func() float64 { return 0.5 })
		s := NewSampler(r, sim.Microsecond)
		if tc.reserved {
			s.Reserve(tc.ticks + 1) // AllocsPerRun adds a warm-up call
		}
		tick := sim.Time(0)
		allocs := testing.AllocsPerRun(tc.ticks, func() {
			c.Inc()
			g.Set(int64(tick))
			s.SampleAt(tick)
			tick++
		})
		if allocs != 0 {
			t.Errorf("reserved %v: a sampler tick made %v allocations on average, want 0", tc.reserved, allocs)
		}
		if got := s.row(s.Len() - 1); got[0] != float64(s.Len()) || got[1] != float64(s.Len()-1) || got[2] != 0.5 {
			t.Errorf("reserved %v: last row = %v, want [%d %d 0.5]", tc.reserved, got, s.Len(), s.Len()-1)
		}
	}
}

// TestSamplerCadence samples at every interval boundary the engine is run
// to, as the run driver does at its sync points, and checks tick count,
// column sorting, and that snapshots see gauge updates made by
// interleaved simulation events.
func TestSamplerCadence(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewRegistry()
	g := r.Gauge("z/depth")
	c := r.Counter("a/pkts")
	r.GaugeFunc("m/load", func() float64 { return 0.25 })

	for i := 1; i <= 9; i++ {
		i := i
		eng.Schedule(sim.Time(i)*sim.Time(sim.Microsecond)+1, func() {
			g.Set(int64(i))
			c.Add(2)
		})
	}
	s := NewSampler(r, 2*sim.Microsecond)
	for at := sim.Time(0); at <= sim.Time(10*sim.Microsecond); at = at.Add(s.Interval()) {
		eng.Run(at)
		s.SampleAt(at)
	}

	// Ticks at 0,2,...,10 µs inclusive.
	if s.Len() != 6 {
		t.Fatalf("ticks = %d, want 6", s.Len())
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_ps,a/pkts,m/load,z/depth" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 7 {
		t.Fatalf("rows = %d, want 7", len(lines))
	}
	// At t=4µs the events for i=1..3 have run (each at iµs+1ps).
	if lines[3] != "4000000,6,0.25,3" {
		t.Errorf("row at 4µs = %q, want %q", lines[3], "4000000,6,0.25,3")
	}
	// Re-serialization is byte-identical.
	var again bytes.Buffer
	s.WriteCSV(&again)
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("CSV serialization not stable")
	}
}

func TestRegistryReportValues(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(3)
	r.Counter("a").Add(1)
	r.Gauge("g").Set(9)
	r.GaugeFunc("f", func() float64 { return 1.5 })
	cv := r.CounterValues()
	if len(cv) != 2 || cv[0].Name != "a" || cv[0].Value != 1 || cv[1].Name != "b" || cv[1].Value != 3 {
		t.Errorf("counter values: %+v", cv)
	}
	gv := r.GaugeValues()
	if len(gv) != 2 || gv[0].Name != "f" || gv[0].Value != 1.5 || gv[1].Name != "g" || gv[1].Value != 9 {
		t.Errorf("gauge values: %+v", gv)
	}
}
