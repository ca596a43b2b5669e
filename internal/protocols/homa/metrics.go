package homa

import "dcpim/internal/metrics"

// instruments is Homa's optional telemetry, shared across hosts. The
// zero value is inert (nil instruments no-op).
type instruments struct {
	sentBytes    *metrics.Counter // all transmitted data wire bytes
	unschedBytes *metrics.Counter // unscheduled (blind-prefix) wire bytes
	grantedBytes *metrics.Counter // wire bytes granted by receivers
	grants       *metrics.Counter
}

// RegisterMetrics instruments every attached Proto on reg under the
// given name prefix ("homa", "phost", ...). No-op when reg is nil.
func RegisterMetrics(ps []*Proto, reg *metrics.Registry, prefix string) {
	if reg == nil || len(ps) == 0 {
		return
	}
	ins := instruments{
		sentBytes:    reg.Counter(prefix + "/sent_bytes"),
		unschedBytes: reg.Counter(prefix + "/unsched_bytes"),
		grantedBytes: reg.Counter(prefix + "/granted_bytes"),
		grants:       reg.Counter(prefix + "/grants"),
	}
	for _, p := range ps {
		p.ins = ins
	}
}
