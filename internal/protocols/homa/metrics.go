package homa

import "dcpim/internal/stats"

// instruments is Homa's optional telemetry, shared across hosts. The
// zero value is inert (zero Counters record nothing).
type instruments struct {
	sentBytes    stats.Counter // all transmitted data wire bytes
	unschedBytes stats.Counter // unscheduled (blind-prefix) wire bytes
	grantedBytes stats.Counter // wire bytes granted by receivers
	grants       stats.Counter
}

// RegisterMetrics registers every attached Proto's instruments on the
// run's collector under the given name prefix ("homa", "phost", ...).
// No-op unless col is instrumented.
func RegisterMetrics(ps []*Proto, col *stats.Collector, prefix string) {
	if !col.Instrumented() || len(ps) == 0 {
		return
	}
	ins := instruments{
		sentBytes:    col.Counter(prefix + "/sent_bytes"),
		unschedBytes: col.Counter(prefix + "/unsched_bytes"),
		grantedBytes: col.Counter(prefix + "/granted_bytes"),
		grants:       col.Counter(prefix + "/grants"),
	}
	for _, p := range ps {
		p.ins = ins
	}
}
