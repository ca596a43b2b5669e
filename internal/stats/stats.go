// Package stats is a run's one recorder. It collects and summarizes the
// evaluation metrics the paper reports — per-flow completion times
// normalized to the unloaded optimum (slowdown), mean and tail
// percentiles overall and bucketed by flow size, and network utilization
// over time — and the named instruments (counters, gauges) that the
// fabric and the transports register and that it samples at the run's
// sync points.
package stats

import (
	"fmt"
	"math"
	"sort"

	"dcpim/internal/sim"
)

// FlowRecord is the completion record of one flow. Src/Dst are int32 —
// host ids fit comfortably (the largest built topology is 27648 hosts) —
// which packs the record to 48 bytes instead of 64. The records slice is
// the dominant steady-state cost per completed flow (see
// core.TestSteadyStateBytesPerFlow), so the record is kept tight.
type FlowRecord struct {
	ID       uint64
	Src, Dst int32
	Size     int64
	Arrival  sim.Time
	Finish   sim.Time
	Optimal  sim.Duration // unloaded FCT, the slowdown denominator
}

// FCT returns the measured flow completion time.
func (r FlowRecord) FCT() sim.Duration { return r.Finish.Sub(r.Arrival) }

// Slowdown returns FCT normalized by the unloaded optimum (≥ 1 up to
// simulation granularity).
func (r FlowRecord) Slowdown() float64 {
	if r.Optimal <= 0 {
		return 1
	}
	return float64(r.FCT()) / float64(r.Optimal)
}

// Collector is a run's one recorder: flow completions, delivered payload
// bytes, named instruments (counters and gauges; instruments.go) and the
// series sampled from them at the run's sync points.
//
// Sharded runs give every shard its own child collector (ForShard), so
// protocol callbacks never contend across shards: each child keeps its
// own records, byte count and instrument slots as plain values, with no
// atomics and no locks. The root's readers merge the children one way,
// summing in shard order — and Records always returns (Finish, ID)
// order — so every read is the same at every shard count.
type Collector struct {
	records   []FlowRecord
	delivered int64   // unique payload bytes confirmed delivered
	slots     []int64 // this shard's value of each registered instrument

	// shards holds the per-shard child collectors on the root; index 0 is
	// the root itself. Empty for single-shard runs.
	shards []*Collector // per-shard children, built by ForShard

	series // root only: the registered columns and their samples
}

// NewCollector returns an empty collector that records no instruments
// until EnableInstruments.
func NewCollector() *Collector { return &Collector{} }

// ForShard returns the child collector for shard i, creating children up
// to i on first use (call during setup, before events run). Shard 0 is
// the root itself, so single-shard runs never allocate children. Safe on
// a nil root (returns nil; writer methods are not nil-safe, matching the
// root's own contract).
func (c *Collector) ForShard(i int) *Collector {
	if c == nil || (i == 0 && c.shards == nil) {
		return c
	}
	for len(c.shards) <= i {
		if len(c.shards) == 0 {
			c.shards = append(c.shards, c)
		} else {
			c.shards = append(c.shards, &Collector{slots: make([]int64, len(c.slots))})
		}
	}
	return c.shards[i]
}

// each visits every shard-local collector exactly once (just the root
// when unsharded).
func (c *Collector) each(f func(*Collector)) {
	if len(c.shards) == 0 {
		f(c)
		return
	}
	for _, s := range c.shards {
		f(s)
	}
}

// FlowDone records a completed flow.
func (c *Collector) FlowDone(r FlowRecord) { c.records = append(c.records, r) }

// Delivered records unique payload bytes arriving at a receiver.
// Protocols call this exactly once per distinct payload byte, so the sum
// is goodput, not raw throughput.
func (c *Collector) Delivered(bytes int64) { c.delivered += bytes }

// Completed returns the number of completed flows across all shards.
func (c *Collector) Completed() int64 {
	var n int64
	c.each(func(s *Collector) { n += int64(len(s.records)) })
	return n
}

// DeliveredBytes returns total unique payload bytes delivered.
func (c *Collector) DeliveredBytes() int64 {
	var n int64
	c.each(func(s *Collector) { n += s.delivered })
	return n
}

// Records returns all completion records in (Finish, ID) order — a total
// order over any run, so the slice is byte-identical at every shard
// count. The slice is shared on single-shard collectors (do not mutate)
// and freshly merged on sharded ones.
func (c *Collector) Records() []FlowRecord {
	out := c.records
	if len(c.shards) > 0 {
		out = make([]FlowRecord, 0, c.Completed())
		for _, s := range c.shards {
			out = append(out, s.records...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Finish != out[j].Finish {
			return out[i].Finish < out[j].Finish
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// UtilizationSeries returns delivered goodput per sampling interval as a
// fraction of aggregate capacity (hosts × rate): bin k is what was
// delivered in [k·interval, (k+1)·interval), the difference of samples
// k+1 and k, and the last bin is what was delivered from the last sample
// to the end of the run, deliveries at the horizon included. There is
// one bin per sample, so the series is as long as the run, not as the
// traffic; nil before StartSeries.
func (c *Collector) UtilizationSeries(hosts int, rateBps float64) []float64 {
	if c.interval == 0 {
		return nil
	}
	out := make([]float64, len(c.goodput))
	cap := rateBps * float64(hosts) / 8 * c.interval.Seconds()
	end := c.DeliveredBytes()
	for k := len(c.goodput) - 1; k >= 0; k-- {
		out[k] = float64(end-c.goodput[k]) / cap
		end = c.goodput[k]
	}
	return out
}

// Summary condenses a set of slowdowns.
type Summary struct {
	Count int
	Mean  float64
	P50   float64
	P99   float64
	P999  float64
	Max   float64
}

// Summarize computes slowdown statistics over records matching the filter
// (nil matches all).
func Summarize(records []FlowRecord, keep func(FlowRecord) bool) Summary {
	var xs []float64
	for _, r := range records {
		if keep == nil || keep(r) {
			xs = append(xs, r.Slowdown())
		}
	}
	return summarizeValues(xs)
}

func summarizeValues(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sort.Float64s(xs)
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return Summary{
		Count: len(xs),
		Mean:  sum / float64(len(xs)),
		P50:   Percentile(xs, 0.50),
		P99:   Percentile(xs, 0.99),
		P999:  Percentile(xs, 0.999),
		Max:   xs[len(xs)-1],
	}
}

// Percentile returns the p-quantile (0..1) of xs using the nearest-rank
// method. xs MUST already be sorted ascending — the function reads ranks
// directly and returns garbage on unsorted input (it cannot afford to
// verify or sort per call; Summarize sorts once and queries many times).
// Degenerate inputs are total: an empty slice yields 0 (never NaN, never
// a panic), a single element is every quantile of itself, and p is
// clamped to [0, 1] with NaN treated as 0.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if !(p > 0) { // also catches NaN
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// SizeBucket is one x-axis group of the paper's per-flow-size slowdown
// plots (Figures 3c–e, 5b, 5d, 7).
type SizeBucket struct {
	Label   string
	Lo, Hi  int64 // payload bytes, inclusive lo, exclusive hi (Hi 0 = ∞)
	Summary Summary
}

// DefaultBuckets returns geometric flow-size buckets anchored at the short
// flow threshold: the first bucket is the paper's "short flows".
func DefaultBuckets(shortThreshold int64) []SizeBucket {
	edges := []int64{0, shortThreshold, 4 * shortThreshold, 16 * shortThreshold,
		64 * shortThreshold, 256 * shortThreshold, 0}
	labels := []string{"short(≤BDP)", "1-4BDP", "4-16BDP", "16-64BDP", "64-256BDP", ">256BDP"}
	out := make([]SizeBucket, len(labels))
	for i := range labels {
		out[i] = SizeBucket{Label: labels[i], Lo: edges[i], Hi: edges[i+1]}
	}
	return out
}

// BucketSlowdowns fills each bucket's summary from the records.
func BucketSlowdowns(records []FlowRecord, buckets []SizeBucket) []SizeBucket {
	out := append([]SizeBucket(nil), buckets...)
	for i := range out {
		lo, hi := out[i].Lo, out[i].Hi
		out[i].Summary = Summarize(records, func(r FlowRecord) bool {
			if r.Size < lo {
				return false
			}
			return hi == 0 || r.Size < hi
		})
	}
	return out
}

// String renders a summary as a compact table cell.
func (s Summary) String() string {
	if s.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("n=%d mean=%.2f p99=%.2f", s.Count, s.Mean, s.P99)
}
