package tcp

import "dcpim/internal/metrics"

// instruments is TCP's optional telemetry, shared across hosts. The zero
// value is inert (nil instruments no-op).
type instruments struct {
	cwnd     *metrics.Histogram // congestion window after each ACK, bytes
	fastRetx *metrics.Counter
	rtos     *metrics.Counter
}

// RegisterMetrics instruments every attached Proto on reg under the
// variant's name prefix ("dctcp", "cubic"). No-op when reg is nil.
func RegisterMetrics(ps []*Proto, reg *metrics.Registry, prefix string) {
	if reg == nil || len(ps) == 0 {
		return
	}
	ins := instruments{
		cwnd:     reg.Histogram(prefix + "/cwnd_bytes"),
		fastRetx: reg.Counter(prefix + "/fast_retransmits"),
		rtos:     reg.Counter(prefix + "/rtos"),
	}
	for _, p := range ps {
		p.ins = ins
	}
}
