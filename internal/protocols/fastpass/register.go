package fastpass

import (
	"dcpim/internal/netsim"
	"dcpim/internal/protocols"
)

// Register Fastpass.
func init() {
	protocols.Register(protocols.Descriptor{
		Name:         "fastpass",
		FabricConfig: FabricConfig,
		Attach: func(f *netsim.Fabric, opts protocols.AttachOptions) {
			Attach(f, Config{}, opts.Collector)
		},
	})
}
