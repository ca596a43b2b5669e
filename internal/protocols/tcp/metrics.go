package tcp

import "dcpim/internal/stats"

// instruments is TCP's optional telemetry, shared across hosts. The zero
// value is inert (zero Counters record nothing).
type instruments struct {
	windowUpdates stats.Counter // congestion-window updates (per-ACK)
	fastRetx      stats.Counter
	rtos          stats.Counter
}

// RegisterMetrics registers every attached Proto's instruments on the
// run's collector under the variant's name prefix ("dctcp", "cubic").
// No-op unless col is instrumented.
func RegisterMetrics(ps []*Proto, col *stats.Collector, prefix string) {
	if !col.Instrumented() || len(ps) == 0 {
		return
	}
	ins := instruments{
		windowUpdates: col.Counter(prefix + "/window_updates"),
		fastRetx:      col.Counter(prefix + "/fast_retransmits"),
		rtos:          col.Counter(prefix + "/rtos"),
	}
	for _, p := range ps {
		p.ins = ins
	}
}
