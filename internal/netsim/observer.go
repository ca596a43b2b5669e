package netsim

import "dcpim/internal/packet"

// Observer watches the fabric's packet lifecycle, packet by packet: the
// packet-conservation auditor (EnableAudit) and delivered-stream digests
// register through AddObserver and receive the same fan-out. Counts do
// not need it — the fabric keeps them in Counters, and its -metrics
// columns read those (RegisterMetrics).
//
// Callbacks run synchronously at the fabric's ownership transition
// points. Observers must copy whatever they need from the packet — the
// fabric recycles it when the observed transition completes — and must
// not mutate packets, inject traffic, or draw randomness (determinism
// depends on observers being pure recorders).
type Observer interface {
	// PacketInjected fires when a host hands a packet to its NIC stack
	// (Host.Send): the moment the fabric takes ownership.
	PacketInjected(host int, p *packet.Packet)
	// PacketDelivered fires just before the destination protocol's
	// OnPacket, after delivery counters update.
	PacketDelivered(host int, p *packet.Packet)
	// PacketDropped fires at every drop site — switch and NIC drop-tail,
	// Aeolus selective drops and injected faults — after the drop
	// counters update and before the packet is recycled.
	PacketDropped(p *packet.Packet)
	// PacketTrimmed fires when a data packet is trimmed to a header
	// (NDP). Trimmed packets are still delivered, so a trim is not a
	// drop.
	PacketTrimmed(p *packet.Packet)
}

// AddObserver registers o; every observer receives every event in
// registration order. Register before traffic is injected.
func (f *Fabric) AddObserver(o Observer) {
	f.obs = append(f.obs, o)
}

// ObserverFuncs adapts bare functions to Observer; nil fields no-op.
// Tests and single-purpose probes use it to subscribe to one lifecycle
// point without stubbing the rest.
type ObserverFuncs struct {
	Injected  func(host int, p *packet.Packet)
	Delivered func(host int, p *packet.Packet)
	Dropped   func(p *packet.Packet)
	Trimmed   func(p *packet.Packet)
}

// PacketInjected implements Observer.
func (o ObserverFuncs) PacketInjected(host int, p *packet.Packet) {
	if o.Injected != nil {
		o.Injected(host, p)
	}
}

// PacketDelivered implements Observer.
func (o ObserverFuncs) PacketDelivered(host int, p *packet.Packet) {
	if o.Delivered != nil {
		o.Delivered(host, p)
	}
}

// PacketDropped implements Observer.
func (o ObserverFuncs) PacketDropped(p *packet.Packet) {
	if o.Dropped != nil {
		o.Dropped(p)
	}
}

// PacketTrimmed implements Observer.
func (o ObserverFuncs) PacketTrimmed(p *packet.Packet) {
	if o.Trimmed != nil {
		o.Trimmed(p)
	}
}
