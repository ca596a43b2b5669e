// Package metrics is the simulator's deterministic telemetry layer: a
// per-run registry of typed instruments (Counter, Gauge, GaugeFunc,
// log-bucketed Histogram) plus a Sampler that snapshots instrument values
// on a simulation-clock cadence.
//
// Two properties shape the design:
//
//   - Zero cost when disabled. Every instrument method is nil-safe — a
//     nil *Counter, *Gauge or *Histogram no-ops — so instrumented code
//     carries no "is telemetry on?" branches and a run without a
//     registry allocates nothing on the hot path.
//
//   - Determinism. Instruments are updated from simulation events and
//     sampled on the simulation clock, never wall clock, and the
//     registry is per-run (no globals), so sampled series are
//     byte-identical between serial and parallel executions of the same
//     seed — and between shard counts of a sharded run. Aggregations use
//     int64 or fixed-order slices; nothing sums floats over Go map
//     iteration, whose order is randomized, and Histogram keeps its sum
//     in fixed point so concurrent shard updates commute exactly.
//
// Registration (Counter, Gauge, GaugeFunc, Histogram) is setup-time and
// single-threaded. Instrument updates are shard-safe: Counter and Gauge
// are atomic and Histogram locks, so sharded fabrics may update them
// from concurrent engine goroutines. Sampling and summarizing must
// happen between epochs (the Sampler is driven from barrier sync
// points).
package metrics

import (
	"sort"
	"sync/atomic"
)

// Counter is a monotonically-increasing int64 instrument. Updates are
// atomic: counters accumulate from every shard of a sharded run, and
// addition commutes, so totals are deterministic.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 instrument (queue depth, window
// occupancy). Updated incrementally from events so sampling it is a
// plain read. Updates are atomic; a gauge should nonetheless be owned by
// one shard's devices (Set from two shards is a last-writer race the
// sampler would surface).
type Gauge struct {
	name string
	v    atomic.Int64
}

// Set replaces the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by n (use a negative n to decrease). No-op on a
// nil receiver.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds one run's instruments, keyed by slash-separated names
// ("netsim/sw0/port2/queue_bytes"). All lookups on a nil registry return
// nil instruments, which no-op — callers register unconditionally and pay
// nothing when telemetry is off.
type Registry struct {
	counters []*Counter
	gauges   []*Gauge
	funcs    []gaugeFunc
	hists    []*Histogram
	kinds    map[string]string
}

type gaugeFunc struct {
	name string
	fn   func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{kinds: make(map[string]string)}
}

func (r *Registry) claim(name, kind string) {
	if prev, dup := r.kinds[name]; dup {
		panic("metrics: instrument " + name + " registered twice (" + prev + ", " + kind + ")")
	}
	r.kinds[name] = kind
}

// Counter registers and returns a counter. Returns nil (a no-op
// instrument) when the registry is nil. Panics on a duplicate name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.claim(name, "counter")
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// Gauge registers and returns a gauge. Returns nil when the registry is
// nil. Panics on a duplicate name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.claim(name, "gauge")
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, g)
	return g
}

// GaugeFunc registers a computed gauge: fn is invoked at each sample
// tick. fn must be a pure read of simulation state — it must not draw
// randomness or mutate anything, or determinism is lost. No-op when the
// registry is nil.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.claim(name, "gaugefunc")
	r.funcs = append(r.funcs, gaugeFunc{name, fn})
}

// Histogram registers and returns a log-bucketed histogram. Returns nil
// when the registry is nil. Panics on a duplicate name.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.claim(name, "histogram")
	h := newHistogram(name)
	r.hists = append(r.hists, h)
	return h
}

// NameValue is one instrument's end-of-run value in a report.
type NameValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// CounterValues returns every counter's final value, sorted by name.
func (r *Registry) CounterValues() []NameValue {
	if r == nil {
		return nil
	}
	out := make([]NameValue, 0, len(r.counters))
	for _, c := range r.counters {
		out = append(out, NameValue{c.name, float64(c.Value())})
	}
	sortByName(out)
	return out
}

// GaugeValues returns the final value of every gauge and computed gauge,
// sorted by name.
func (r *Registry) GaugeValues() []NameValue {
	if r == nil {
		return nil
	}
	out := make([]NameValue, 0, len(r.gauges)+len(r.funcs))
	for _, g := range r.gauges {
		out = append(out, NameValue{g.name, float64(g.Value())})
	}
	for _, f := range r.funcs {
		out = append(out, NameValue{f.name, f.fn()})
	}
	sortByName(out)
	return out
}

// HistogramSummaries returns a summary of every histogram, sorted by
// name.
func (r *Registry) HistogramSummaries() []HistogramSummary {
	if r == nil {
		return nil
	}
	out := make([]HistogramSummary, 0, len(r.hists))
	for _, h := range r.hists {
		out = append(out, h.Summary())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func sortByName(nv []NameValue) {
	sort.Slice(nv, func(i, j int) bool { return nv[i].Name < nv[j].Name })
}

// columns returns the sampled instruments (counters, gauges, computed
// gauges — histograms summarize at end of run instead) as named read
// functions, sorted by name. NewSampler freezes this set.
func (r *Registry) columns() []column {
	if r == nil {
		return nil
	}
	cols := make([]column, 0, len(r.counters)+len(r.gauges)+len(r.funcs))
	for _, c := range r.counters {
		c := c
		cols = append(cols, column{c.name, func() float64 { return float64(c.Value()) }})
	}
	for _, g := range r.gauges {
		g := g
		cols = append(cols, column{g.name, func() float64 { return float64(g.Value()) }})
	}
	for _, f := range r.funcs {
		cols = append(cols, column{f.name, f.fn})
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].name < cols[j].name })
	return cols
}

type column struct {
	name string
	read func() float64
}
