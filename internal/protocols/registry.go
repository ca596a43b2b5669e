// Package protocols is the transport registry: every protocol package
// registers a named Descriptor from its init function, and experiments
// resolve protocols by name — adding a transport no longer edits the
// experiments package, only adds a registration (plus a blank import
// where descriptors should be available).
//
// The package sits between netsim and the transports: it may import the
// fabric, stats and metrics, but never a protocol implementation
// (protocol packages import it to register themselves).
package protocols

import (
	"fmt"
	"sort"

	"dcpim/internal/metrics"
	"dcpim/internal/netsim"
	"dcpim/internal/stats"
)

// AttachOptions carries everything a protocol needs at attach time
// beyond the fabric itself.
type AttachOptions struct {
	// Collector receives flow lifecycle records; required.
	Collector *stats.Collector
	// Metrics, when non-nil, is the run's telemetry registry: the
	// protocol registers its instruments (window occupancy, cwnd,
	// sent/granted bytes, ...) on it. Nil disables telemetry at zero
	// cost.
	Metrics *metrics.Registry
	// ProtoConfig optionally overrides the protocol's default
	// configuration. Only "dcpim" reads it, as a *core.Config (what
	// RunSpec.DcPIM carries); every other protocol attaches its defaults.
	ProtoConfig any
}

// Descriptor is one registered transport.
type Descriptor struct {
	// Name is the registry key ("dcpim", "homa-aeolus", ...).
	Name string
	// FabricConfig returns the netsim configuration the protocol
	// expects (dataplane features, multipathing mode).
	FabricConfig func() netsim.Config
	// Attach installs the protocol on every host of the fabric and
	// registers its instruments when opts.Metrics is set.
	Attach func(f *netsim.Fabric, opts AttachOptions)
}

var registry = map[string]Descriptor{}

// Register adds a descriptor; protocol packages call it from init.
// Panics on a duplicate or incomplete descriptor — both are programming
// errors caught at process start.
func Register(d Descriptor) {
	if d.Name == "" || d.FabricConfig == nil || d.Attach == nil {
		panic("protocols: incomplete descriptor")
	}
	if _, dup := registry[d.Name]; dup {
		panic(fmt.Sprintf("protocols: %q registered twice", d.Name))
	}
	registry[d.Name] = d
}

// Lookup resolves a registered protocol by name.
func Lookup(name string) (Descriptor, bool) {
	d, ok := registry[name]
	return d, ok
}

// MustLookup resolves a protocol or panics with the registered names —
// the caller passed an unknown protocol string.
func MustLookup(name string) Descriptor {
	d, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("protocols: unknown protocol %q (registered: %v)", name, Names()))
	}
	return d
}

// Names lists the registered protocols in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
