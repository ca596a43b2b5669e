package hpcc

import "dcpim/internal/stats"

// instruments is HPCC's optional telemetry, shared across hosts. The
// zero value is inert (zero Counters record nothing).
type instruments struct {
	updates stats.Counter // window updates (per-ACK)
}

// RegisterMetrics registers every attached Proto's instruments on the
// run's collector. No-op unless col is instrumented.
func RegisterMetrics(ps []*Proto, col *stats.Collector) {
	if !col.Instrumented() || len(ps) == 0 {
		return
	}
	ins := instruments{
		updates: col.Counter("hpcc/window_updates"),
	}
	for _, p := range ps {
		p.ins = ins
	}
}
