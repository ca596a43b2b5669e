// Package phost implements a pHost-style receiver-driven transport (Gao et
// al., CoNEXT 2015): per-packet tokens from the receiver, a free
// first-BDP window the sender transmits without credit, SRPT token
// scheduling at the receiver, and no reliance on switch priorities for
// data. Mechanically this is the Homa engine with a flat data priority and
// no overcommitment, which is exactly how the dcPIM paper positions the
// two designs (single-round matching protocols, footnote 1).
package phost

import (
	"dcpim/internal/netsim"
	"dcpim/internal/protocols/homa"
	"dcpim/internal/stats"
)

// Proto is one host's pHost instance.
type Proto = homa.Proto

// Attach installs pHost on every host of the fabric.
func Attach(fab *netsim.Fabric, col *stats.Collector) []*Proto {
	return homa.Attach(fab, homa.Config{Overcommit: 1, FlatPriority: true}, col)
}

// FabricConfig returns the netsim configuration pHost expects (per-packet
// spraying, plain drop-tail queues).
func FabricConfig() netsim.Config { return netsim.Config{Spray: true} }
