package ndp

import "dcpim/internal/metrics"

// instruments is NDP's optional telemetry, shared across hosts. The zero
// value is inert (nil instruments no-op).
type instruments struct {
	sentBytes *metrics.Counter // transmitted data wire bytes (incl. retransmissions)
	pulls     *metrics.Counter // pull credits issued by receivers
	nacks     *metrics.Counter // trim/loss NACKs processed by senders
}

// RegisterMetrics instruments every attached Proto on reg. No-op when
// reg is nil.
func RegisterMetrics(ps []*Proto, reg *metrics.Registry) {
	if reg == nil || len(ps) == 0 {
		return
	}
	ins := instruments{
		sentBytes: reg.Counter("ndp/sent_bytes"),
		pulls:     reg.Counter("ndp/pulls"),
		nacks:     reg.Counter("ndp/nacks"),
	}
	for _, p := range ps {
		p.ins = ins
	}
}
