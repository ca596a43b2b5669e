package stats

import (
	"io"
	"sort"
	"strconv"

	"dcpim/internal/sim"
)

// Counter names one registered instrument. Shards add to it through their
// own collector (Collector.Add), each into its own slot, and the column's
// value is the sum over shards. A gauge is a Counter that also goes down.
// The zero Counter, which a collector without instruments hands out,
// records nothing, so instrumented code carries no "is telemetry on?"
// branches and an uninstrumented run allocates nothing for it.
type Counter struct{ slot int } // 1 + index into every shard's slots; 0 records nothing

// Add moves k by n on this shard (a negative n lowers a gauge). No-op for
// the zero Counter.
func (c *Collector) Add(k Counter, n int64) {
	if k.slot != 0 {
		c.slots[k.slot-1] += n
	}
}

// series is the root's half of the instruments: the registered columns
// and the rows sampled from them. Every read and write of it runs with
// every shard quiescent — set-up, a barrier sync point or the end of the
// run — so none of it needs a lock.
type series struct {
	instrumented bool
	cols         []column
	names        map[string]bool

	interval sim.Duration // sampling cadence; 0 until StartSeries
	times    []sim.Time
	goodput  []int64 // DeliveredBytes at each sample
	// vals holds the rows back to back: row i is vals[i*len(cols) :
	// (i+1)*len(cols)], so a sample appends to one slab instead of making
	// a row.
	vals []int64
}

// column is one registered instrument: a slot every shard adds to, or a
// computed read of simulation state.
type column struct {
	name  string
	gauge bool         // reported under gauges rather than counters
	slot  int          // index into every shard's slots (fn == nil)
	fn    func() int64 // computed column
}

// EnableInstruments turns registration on: until it is called, every
// registration is a no-op and hands out the zero Counter.
func (c *Collector) EnableInstruments() { c.instrumented = true }

// Instrumented reports whether registration is on, so a package can skip
// building instrument names nobody records.
func (c *Collector) Instrumented() bool { return c.instrumented }

// Counter registers a counter column on the root and returns its handle.
// Panics on a duplicate name or after StartSeries.
func (c *Collector) Counter(name string) Counter { return c.register(name, false, nil) }

// Gauge registers a gauge column: a Counter that reports as a gauge.
func (c *Collector) Gauge(name string) Counter { return c.register(name, true, nil) }

// CounterFunc registers a computed counter column: fn is called at each
// sample and at the end of the run. fn must be a pure read of simulation
// state — it must not draw randomness or mutate anything, or determinism
// is lost.
func (c *Collector) CounterFunc(name string, fn func() int64) { c.register(name, false, fn) }

// GaugeFunc registers a computed gauge column; fn is as for CounterFunc.
func (c *Collector) GaugeFunc(name string, fn func() int64) { c.register(name, true, fn) }

func (c *Collector) register(name string, gauge bool, fn func() int64) Counter {
	if !c.instrumented {
		return Counter{}
	}
	if c.interval != 0 {
		panic("stats: instrument " + name + " registered after sampling started")
	}
	if c.names[name] {
		panic("stats: instrument " + name + " registered twice")
	}
	if c.names == nil {
		c.names = make(map[string]bool)
	}
	c.names[name] = true
	col := column{name: name, gauge: gauge, fn: fn}
	var k Counter
	if fn == nil {
		col.slot = len(c.slots)
		c.each(func(s *Collector) { s.slots = append(s.slots, 0) })
		k = Counter{col.slot + 1}
	}
	c.cols = append(c.cols, col)
	return k
}

// value reads one column: the computed value, or the sum of the shards'
// slots in shard order.
func (c *Collector) value(col *column) int64 {
	if col.fn != nil {
		return col.fn()
	}
	var v int64
	c.each(func(s *Collector) { v += s.slots[col.slot] })
	return v
}

// StartSeries fixes the sampling cadence and the column set (register
// every instrument first), sizes the series for a run of horizon, and
// takes the first sample, stamped 0, which must come before any event
// runs. The driver then calls Sample at every later multiple of interval
// up to the horizon.
func (c *Collector) StartSeries(interval, horizon sim.Duration) {
	if interval <= 0 {
		panic("stats: sampling interval must be positive")
	}
	c.interval = interval
	sort.Slice(c.cols, func(i, j int) bool { return c.cols[i].name < c.cols[j].name })
	n := int(horizon/interval) + 1
	c.times = make([]sim.Time, 0, n)
	c.goodput = make([]int64, 0, n)
	c.vals = make([]int64, 0, n*len(c.cols))
	c.Sample(0)
}

// Sample appends one row stamped t. Its driver (netsim.Fabric.RunSynced)
// calls it with every shard quiescent, after every event before t and
// before any event at t, so the row stamped t holds what happened in
// [0, t) — at every shard count, and the same row a byte delivered at
// exactly t is counted from.
func (c *Collector) Sample(t sim.Time) {
	c.times = append(c.times, t)
	c.goodput = append(c.goodput, c.DeliveredBytes())
	for i := range c.cols {
		c.vals = append(c.vals, c.value(&c.cols[i]))
	}
}

// Samples returns the number of rows sampled so far.
func (c *Collector) Samples() int { return len(c.times) }

// Interval returns the sampling cadence StartSeries fixed, which is also
// the width of every UtilizationSeries bin (0 before StartSeries).
func (c *Collector) Interval() sim.Duration { return c.interval }

// WriteCSV emits the sampled instruments: a header line
// "time_ps,<instrument>,..." (instruments sorted by name) followed by one
// row per sample. Times are integer picoseconds and values exact
// integers, so identical runs write identical bytes.
func (c *Collector) WriteCSV(w io.Writer) error {
	buf := make([]byte, 0, 256)
	buf = append(buf, "time_ps"...)
	for _, col := range c.cols {
		buf = append(buf, ',')
		buf = append(buf, col.name...)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		return err
	}
	n := len(c.cols)
	for i, t := range c.times {
		buf = strconv.AppendInt(buf[:0], int64(t), 10)
		for _, v := range c.vals[i*n : (i+1)*n] {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// NameValue is one instrument's end-of-run value in a report.
type NameValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Values returns the current value of every counter and of every gauge,
// each list in name order (call after StartSeries).
func (c *Collector) Values() (counters, gauges []NameValue) {
	counters, gauges = []NameValue{}, []NameValue{}
	for i := range c.cols {
		nv := NameValue{c.cols[i].name, c.value(&c.cols[i])}
		if c.cols[i].gauge {
			gauges = append(gauges, nv)
		} else {
			counters = append(counters, nv)
		}
	}
	return counters, gauges
}
