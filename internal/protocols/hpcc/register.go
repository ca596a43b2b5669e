package hpcc

import (
	"dcpim/internal/metrics"
	"dcpim/internal/netsim"
	"dcpim/internal/protocols"
)

// instruments is HPCC's optional telemetry, shared across hosts. The
// zero value is inert (nil instruments no-op).
type instruments struct {
	cwnd    *metrics.Histogram // window after each HPCC update, bytes
	updates *metrics.Counter   // window updates (per-ACK)
}

// RegisterMetrics instruments every attached Proto on reg. No-op when
// reg is nil.
func RegisterMetrics(ps []*Proto, reg *metrics.Registry) {
	if reg == nil || len(ps) == 0 {
		return
	}
	ins := instruments{
		cwnd:    reg.Histogram("hpcc/cwnd_bytes"),
		updates: reg.Counter("hpcc/window_updates"),
	}
	for _, p := range ps {
		p.ins = ins
	}
}

// Register HPCC.
func init() {
	protocols.Register(protocols.Descriptor{
		Name:         "hpcc",
		FabricConfig: func() netsim.Config { return DefaultConfig().FabricConfig() },
		Attach: func(f *netsim.Fabric, opts protocols.AttachOptions) {
			RegisterMetrics(Attach(f, DefaultConfig(), opts.Collector), opts.Metrics)
		},
	})
}
