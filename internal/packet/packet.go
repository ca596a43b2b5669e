// Package packet defines the wire-level packet model shared by every
// transport protocol in the simulator. Following the layered-constant idiom
// of packet libraries, each packet carries a typed Kind, a priority class
// (0 is highest, mapped to switch priority queues), addressing, and a small
// set of protocol-specific header fields. One struct serves all protocols;
// unused fields cost nothing and keep the fabric simulator free of
// per-protocol knowledge.
package packet

import (
	"fmt"
	"sync"

	"dcpim/internal/sim"
)

// Kind identifies the role of a packet. Control kinds are small (HeaderSize
// bytes on the wire) and are sent at the highest priority by proactive
// protocols, making the fabric effectively lossless for them.
type Kind uint8

const (
	// Data carries flow payload.
	Data Kind = iota
	// Notification announces a new flow from sender to receiver (dcPIM,
	// pHost) and may carry the flow size.
	Notification
	// NotificationAck acknowledges a Notification (dcPIM).
	NotificationAck
	// FinishSender tells the receiver the sender transmitted all packets.
	FinishSender
	// FinishReceiver confirms the receiver got all packets of a flow.
	FinishReceiver
	// Token admits one data packet (receiver-driven protocols).
	Token
	// RTS is a matching-phase request (dcPIM: receiver → sender).
	RTS
	// Grant is a matching-phase grant (dcPIM: sender → receiver; Homa:
	// receiver → sender scheduled credit).
	Grant
	// Accept is a matching-phase accept (dcPIM: receiver → sender).
	Accept
	// Nack reports a trimmed packet (NDP).
	Nack
	// Pull requests (re)transmission of one packet (NDP pull clock).
	Pull
	// Ack is a transport acknowledgement (HPCC, DCTCP, Cubic) and may echo
	// INT telemetry or ECN state.
	Ack
)

var kindNames = [...]string{
	"DATA", "NOTIF", "NOTIF-ACK", "FIN-SND", "FIN-RCV", "TOKEN",
	"RTS", "GRANT", "ACCEPT", "NACK", "PULL", "ACK",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("KIND(%d)", uint8(k))
}

// IsControl reports whether the kind is a control packet (everything except
// Data). Trimmed data packets remain Kind Data with Trimmed set.
func (k Kind) IsControl() bool { return k != Data }

// Wire sizes in bytes. MTU is the maximum on-wire packet size including
// headers; HeaderSize is the size of any control packet and of a trimmed
// data packet; PayloadSize is the useful payload per full data packet.
const (
	MTU         = 1500
	HeaderSize  = 64
	PayloadSize = MTU - HeaderSize
)

// PacketsForBytes returns the number of data packets needed to carry size
// payload bytes.
func PacketsForBytes(size int64) int {
	if size <= 0 {
		return 0
	}
	return int((size + PayloadSize - 1) / PayloadSize)
}

// Priority classes. Switches have NumPriorities queues; 0 drains first.
const (
	NumPriorities = 8
	// PrioControl is the class for all control packets.
	PrioControl = 0
	// PrioShort is the class proactive protocols use for short-flow data.
	PrioShort = 1
	// PrioDataHigh..PrioDataLow are available for scheduled/long data.
	PrioDataHigh = 2
	PrioDataLow  = NumPriorities - 1
)

// INTHop is one hop's worth of in-band network telemetry, appended by each
// traversed output port when Packet.CollectINT is set (HPCC).
type INTHop struct {
	QueueBytes int64    // queue length at dequeue
	TxBytes    int64    // cumulative bytes transmitted by the port
	Timestamp  sim.Time // dequeue time
	RateBps    float64  // port line rate
}

// Packet is a simulated packet, allocated from a shared pool (Get) and
// recycled (Release) when its owner is done with it.
//
// Ownership rules: the fabric owns a packet from the moment it is handed
// to Host.Send until it is dropped or delivered; protocols must not retain
// or mutate a packet after sending it. On delivery the fabric lends the
// packet to Protocol.OnPacket and recycles it when OnPacket returns — a
// protocol that needs the packet afterwards (e.g. buffering tokens or
// grants for a later phase) must call Keep inside OnPacket, after which it
// owns the packet and should Release it once consumed.
//
// The field order is the memory layout: the byte-sized fields share the
// first word, the 32-bit counts pair up, and the telemetry sits behind a
// pointer, so a packet is 120 bytes and takes the allocator's 128-byte
// size class (TestPortLayout in netsim holds it there).
type Packet struct {
	Kind     Kind
	Priority uint8 // 0 (highest) .. NumPriorities-1

	// Fabric-maintained flags.
	ECN        bool // congestion-experienced mark
	Trimmed    bool // payload was trimmed to a header (NDP)
	Unsched    bool // unscheduled data, eligible for selective drop (Aeolus)
	CollectINT bool // gather per-hop telemetry (HPCC)

	keep bool // transient ownership flag, false for every packet at rest in a queue

	Src, Dst int    // host ids
	Flow     uint64 // flow id (0 = none)
	Seq      int    // data/token sequence number within the flow
	Size     int    // bytes on the wire

	// Transport header fields; which are meaningful depends on Kind and
	// the protocol in use.
	FlowSize  int64 // total flow payload bytes (Notification, RTS)
	Remaining int64 // remaining payload bytes (RTS, Grant for SRPT choices)
	CumAck    int   // cumulative ack: smallest seq not yet received
	Epoch     int64 // matching epoch (dcPIM)

	SentAt sim.Time // when the source host handed the packet to its NIC

	Round    int32 // matching round (dcPIM RTS/Grant/Accept)
	Channels int32 // number of channels requested/granted/accepted (dcPIM)
	Count    int32 // generic count (FinishSender: packets sent; Homa grant: granted prio)

	// Queue linkage, owned by the fabric while the packet is buffered in a
	// port (netsim's intrusive per-class lists) and zero at every other
	// time: QNext is the packet behind this one in its class (the class's
	// tail links back to its head), QIn the ingress port it arrived
	// through (-1 when not applicable). Protocols never read or write them.
	QIn   int32
	QNext *Packet

	// hops is the telemetry (INT, AppendINT, SetINT), nil until the
	// packet first carries any. Release keeps the box and its backing
	// array, so a recycled packet appends into capacity it already grew.
	hops *[]INTHop
}

// pool recycles packets across the whole process. Packets carry no
// engine-specific state, so concurrent simulations (experiments.RunMany)
// share it safely.
var pool = sync.Pool{New: func() any { return new(Packet) }}

// Get returns a zeroed packet from the pool. Prefer NewControl/NewData,
// which also fill the common fields.
func Get() *Packet {
	return pool.Get().(*Packet)
}

// Release zeroes p and returns it to the pool. The caller must own p and
// drop every reference to it; the telemetry's backing array is kept for
// reuse.
func Release(p *Packet) {
	hops := p.hops
	*p = Packet{}
	if hops != nil {
		*hops = (*hops)[:0]
		p.hops = hops
	}
	pool.Put(p)
}

// INT returns the telemetry the packet carries, one entry per hop.
func (p *Packet) INT() []INTHop {
	if p.hops == nil {
		return nil
	}
	return *p.hops
}

// AppendINT records one more hop's telemetry.
func (p *Packet) AppendINT(h INTHop) {
	if p.hops == nil {
		p.hops = new([]INTHop)
	}
	*p.hops = append(*p.hops, h)
}

// SetINT replaces the packet's telemetry with a copy of hops (an ack
// echoing its data packet's).
func (p *Packet) SetINT(hops []INTHop) {
	if p.hops == nil {
		if len(hops) == 0 {
			return
		}
		p.hops = new([]INTHop)
	}
	*p.hops = append((*p.hops)[:0], hops...)
}

// Keep marks a delivered packet as taken over by the receiving protocol:
// the fabric will not recycle it after OnPacket returns. The protocol
// then owns the packet and should Release it when consumed (leaving it to
// the garbage collector is correct but defeats pooling). The release must
// happen from a later event, never synchronously inside the OnPacket that
// received the packet: the fabric reads the packet again right after
// OnPacket returns, and a released packet may already have been reissued
// by the pool — to a concurrent simulation under experiments.RunMany.
func (p *Packet) Keep() { p.keep = true }

// ReleaseUnlessKept is the fabric's post-delivery release point: it
// recycles p unless the protocol claimed it with Keep, clearing the mark
// either way. Because the fabric still touches the packet here, a protocol
// must never Release a delivered packet inside OnPacket itself — it keeps
// the packet and consumes it from a later event (see Keep).
func ReleaseUnlessKept(p *Packet) {
	if p.keep {
		p.keep = false
		return
	}
	Release(p)
}

// String renders a compact one-line description for traces and tests.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %d->%d flow=%d seq=%d size=%d prio=%d",
		p.Kind, p.Src, p.Dst, p.Flow, p.Seq, p.Size, p.Priority)
}

// NewControl builds a control packet of the given kind between two hosts at
// the control priority with the standard control size.
func NewControl(kind Kind, src, dst int, flow uint64) *Packet {
	p := Get()
	p.Kind, p.Src, p.Dst, p.Flow = kind, src, dst, flow
	p.Size, p.Priority = HeaderSize, PrioControl
	return p
}

// NewData builds a full-size data packet for one MTU of flow payload.
// The final packet of a flow may be smaller; callers size it explicitly.
func NewData(src, dst int, flow uint64, seq int, size int, prio uint8) *Packet {
	p := Get()
	p.Kind, p.Src, p.Dst, p.Flow = Data, src, dst, flow
	p.Seq, p.Size, p.Priority = seq, size, prio
	return p
}

// DataPacketSize returns the on-wire size of data packet seq (0-indexed) of
// a flow with the given payload size: full MTUs except a short tail.
func DataPacketSize(flowSize int64, seq int) int {
	n := PacketsForBytes(flowSize)
	if seq < 0 || seq >= n {
		return 0
	}
	if seq < n-1 {
		return MTU
	}
	tail := flowSize - int64(n-1)*PayloadSize
	return int(tail) + HeaderSize
}
