package ndp

import "dcpim/internal/stats"

// instruments is NDP's optional telemetry, shared across hosts. The zero
// value is inert (zero Counters record nothing).
type instruments struct {
	sentBytes stats.Counter // transmitted data wire bytes (incl. retransmissions)
	pulls     stats.Counter // pull credits issued by receivers
	nacks     stats.Counter // trim/loss NACKs processed by senders
}

// RegisterMetrics registers every attached Proto's instruments on the
// run's collector. No-op unless col is instrumented.
func RegisterMetrics(ps []*Proto, col *stats.Collector) {
	if !col.Instrumented() || len(ps) == 0 {
		return
	}
	ins := instruments{
		sentBytes: col.Counter("ndp/sent_bytes"),
		pulls:     col.Counter("ndp/pulls"),
		nacks:     col.Counter("ndp/nacks"),
	}
	for _, p := range ps {
		p.ins = ins
	}
}
