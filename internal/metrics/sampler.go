package metrics

import (
	"io"
	"slices"
	"strconv"

	"dcpim/internal/sim"
)

// Sampler snapshots a registry's sampled instruments (counters, gauges,
// computed gauges) on a fixed simulation-clock cadence. Its driver calls
// SampleAt at each multiple of the interval with every shard quiescent
// (netsim.Fabric.RunSynced), never from a wall-clock timer, and reads
// are pure, so the recorded series is a deterministic function of the
// run: serial, parallel and sharded executions of the same seed produce
// byte-identical CSV, and the simulated packet stream is untouched.
//
// The column set is frozen at NewSampler: register every instrument
// before building the sampler.
type Sampler struct {
	interval sim.Duration
	cols     []column
	times    []sim.Time
	// vals holds the rows back to back: row i is vals[i*len(cols) :
	// (i+1)*len(cols)], so a tick appends to one slab instead of making a
	// row.
	vals []float64
}

// NewSampler builds a sampler over reg's current instruments. Returns
// nil when reg is nil — a nil Sampler no-ops — so callers can wire it
// unconditionally.
func NewSampler(reg *Registry, interval sim.Duration) *Sampler {
	if reg == nil {
		return nil
	}
	if interval <= 0 {
		panic("metrics: sampler interval must be positive")
	}
	return &Sampler{interval: interval, cols: reg.columns()}
}

// SampleAt takes one snapshot stamped with time t. Callers sample at
// deterministic simulation times with all shards quiescent — between
// epochs — so the recorded series is identical at every shard count.
// No-op on a nil receiver.
func (s *Sampler) SampleAt(t sim.Time) {
	if s == nil {
		return
	}
	for i := range s.cols {
		s.vals = append(s.vals, s.cols[i].read())
	}
	s.times = append(s.times, t)
}

// Reserve sizes the sampler for ticks snapshots in all, so a run whose
// length is known up front fills one slab instead of re-growing it: a
// large slice grows by a quarter at a time, so a slab grown tick by tick
// allocates and copies several times its final size. No-op on a nil
// receiver.
func (s *Sampler) Reserve(ticks int) {
	if s == nil || ticks <= len(s.times) {
		return
	}
	s.times = slices.Grow(s.times, ticks-len(s.times))
	s.vals = slices.Grow(s.vals, (ticks-len(s.times))*len(s.cols))
}

// row returns snapshot i's values, one per column.
func (s *Sampler) row(i int) []float64 {
	n := len(s.cols)
	return s.vals[i*n : (i+1)*n]
}

// Len returns the number of snapshots taken (0 for nil).
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	return len(s.times)
}

// Interval returns the sampling cadence (0 for nil).
func (s *Sampler) Interval() sim.Duration {
	if s == nil {
		return 0
	}
	return s.interval
}

// WriteCSV emits the sampled series: a header line
// "time_ps,<instrument>,..." (instruments sorted by name) followed by
// one row per tick. Times are integer picoseconds; values print as
// exact decimal integers when integral, shortest round-trip float form
// otherwise — both byte-stable for identical runs. A nil sampler writes
// nothing.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	buf := make([]byte, 0, 256)
	buf = append(buf, "time_ps"...)
	for _, c := range s.cols {
		buf = append(buf, ',')
		buf = append(buf, c.name...)
	}
	buf = append(buf, '\n')
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for i, t := range s.times {
		buf = buf[:0]
		buf = strconv.AppendInt(buf, int64(t), 10)
		for _, v := range s.row(i) {
			buf = append(buf, ',')
			buf = appendValue(buf, v)
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendValue formats integral values as plain decimals (counters and
// gauges stay readable) and everything else in shortest round-trip form.
func appendValue(buf []byte, v float64) []byte {
	if v == float64(int64(v)) && v >= -1e15 && v <= 1e15 {
		return strconv.AppendInt(buf, int64(v), 10)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}
