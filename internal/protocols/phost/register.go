package phost

import (
	"dcpim/internal/netsim"
	"dcpim/internal/protocols"
	"dcpim/internal/protocols/homa"
)

// Register pHost. Proto aliases homa.Proto, so the engine's instruments
// apply under the "phost" prefix.
func init() {
	protocols.Register(protocols.Descriptor{
		Name:         "phost",
		FabricConfig: FabricConfig,
		Attach: func(f *netsim.Fabric, opts protocols.AttachOptions) {
			homa.RegisterMetrics(Attach(f, Config{}, opts.Collector), opts.Metrics, "phost")
		},
	})
}
