// Package homa implements a receiver-driven Homa-style transport
// (Montazeri et al., SIGCOMM 2018) and its Aeolus variant (Hu et al.,
// SIGCOMM 2020), the strongest baseline in the dcPIM evaluation.
//
// Mechanisms reproduced:
//
//   - Senders transmit an unscheduled prefix (one BDP) immediately, at a
//     priority derived from flow size (smaller flows → higher priority).
//   - Receivers grant the rest packet-by-packet, SRPT-first, with an
//     overcommitment degree: when the best sender's window is full
//     (the sender is slow or busy), grants spill to the next-best flows.
//   - Classic Homa sends unscheduled traffic above scheduled traffic and
//     has no drop-aware recovery beyond timeouts; with realistic buffers
//     this loses packets under load (the behaviour Aeolus documents).
//   - Aeolus mode marks unscheduled packets (beyond each flow's first)
//     droppable so switches shed them early under buffer pressure
//     (netsim's AeolusThresholdBytes), and recovers dropped unscheduled
//     packets as scheduled retransmissions via gap detection and stall
//     timeouts.
package homa

import (
	"cmp"
	"slices"

	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/protocols/flowtrack"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/workload"
)

// Config tunes the Homa host.
type Config struct {
	// Aeolus selects the Aeolus priority layout and selective-drop
	// recovery; the fabric should set AeolusThresholdBytes alongside.
	Aeolus bool
	// Overcommit is the number of senders a receiver keeps granted in
	// parallel (Homa's overcommitment degree), at least 1.
	Overcommit int
	// FlatPriority collapses all data to one priority class (used by the
	// pHost-like configuration; control stays at priority 0).
	FlatPriority bool
}

// DefaultConfig returns Homa defaults (classic mode). The overcommitment
// degree follows the Homa paper's observation that several concurrently
// granted senders are needed to keep a downlink busy when senders are
// shared across receivers.
func DefaultConfig() Config { return Config{Overcommit: 4} }

// AeolusConfig returns the Homa Aeolus configuration.
func AeolusConfig() Config { return Config{Aeolus: true, Overcommit: 4} }

// FabricConfig returns the netsim configuration this protocol expects:
// spraying, and in Aeolus mode an early selective-drop threshold for
// unscheduled packets.
func (c Config) FabricConfig() netsim.Config {
	fc := netsim.Config{Spray: true}
	if c.Aeolus {
		// Aeolus sheds unscheduled packets at a shallow threshold — the
		// design point is to keep buffers nearly empty for scheduled
		// traffic and rely on scheduled retransmission for the shed
		// prefix. This is what costs Aeolus its short-flow latency in the
		// dcPIM comparison.
		fc.AeolusThresholdBytes = 32 * packet.MTU
	}
	return fc
}

// Proto is one host's Homa instance.
type Proto struct {
	cfg Config
	col *stats.Collector
	ins instruments // optional telemetry (RegisterMetrics); zero value is inert

	host *netsim.Host
	eng  *sim.Engine
	id   int

	windowPkts int // 1 BDP: the unscheduled prefix and the grant window
	mtuTime    sim.Duration
	dataRTT    sim.Duration

	tx map[uint64]*flowtrack.Tx
	rx map[uint64]*rxState

	granting bool
	cands    []*rxState // grantCandidates' buffer, reused every grant tick

	credits []*packet.Packet // queued grants awaiting transmission
	pacing  bool
}

type rxState struct {
	*flowtrack.Rx
	lastProgress sim.Time
	checker      sim.Timer
}

// newProto returns an unattached Homa host.
func newProto(cfg Config, col *stats.Collector) *Proto {
	return &Proto{cfg: cfg, col: col,
		tx: make(map[uint64]*flowtrack.Tx),
		rx: make(map[uint64]*rxState),
	}
}

// Attach installs Homa on every host of the fabric.
func Attach(fab *netsim.Fabric, cfg Config, col *stats.Collector) []*Proto {
	ps := make([]*Proto, fab.Topology().NumHosts)
	for i := range ps {
		ps[i] = newProto(cfg, col.ForShard(fab.ShardOfHost(i)))
		fab.AttachProtocol(i, ps[i])
	}
	return ps
}

// Start implements netsim.Protocol.
func (p *Proto) Start(h *netsim.Host) {
	p.host = h
	p.eng = h.Engine()
	p.id = h.ID()
	p.windowPkts = packet.PacketsForBytes(h.Topo().BDP())
	p.mtuTime = sim.TransmissionTime(packet.MTU, h.LineRate())
	p.dataRTT = h.Topo().DataRTT()
}

// unschedPrio maps flow size to the unscheduled priority class.
func (p *Proto) unschedPrio(size int64) uint8 {
	if p.cfg.FlatPriority {
		return packet.PrioDataHigh
	}
	bdp := int64(p.windowPkts) * packet.PayloadSize
	var rank uint8
	switch {
	case size <= bdp/8:
		rank = 0
	case size <= bdp:
		rank = 1
	case size <= 8*bdp:
		rank = 2
	default:
		rank = 3
	}
	// Unscheduled rides on top in both modes (these are the first-RTT,
	// latency-critical packets); Aeolus differs by making them droppable
	// in the fabric, not by starving them in queues.
	return 1 + rank
}

// schedPrio maps an SRPT rank to the scheduled priority class.
func (p *Proto) schedPrio(rank int) uint8 {
	if p.cfg.FlatPriority {
		return packet.PrioDataHigh
	}
	if rank > 2 {
		rank = 2
	}
	// Scheduled classes sit below unscheduled (5..7), best SRPT rank
	// highest.
	return uint8(5 + rank)
}

// OnFlowArrival implements netsim.Protocol: notify, then blast the
// unscheduled prefix.
func (p *Proto) OnFlowArrival(fl workload.Flow) {
	f := flowtrack.NewTx(fl.ID, fl.Dst, fl.Size, fl.Arrival)
	p.tx[f.ID] = f

	n := packet.NewControl(packet.Notification, p.id, f.Dst, f.ID)
	n.FlowSize = f.Size
	p.host.Send(n)

	prio := p.unschedPrio(f.Size)
	for seq := 0; seq < f.Npkts && seq < p.windowPkts; seq++ {
		// Aeolus guarantees the first unscheduled packet is never
		// selectively dropped (the "probe" the receiver schedules from).
		p.sendData(f, seq, prio, seq > 0)
	}
}

func (p *Proto) sendData(f *flowtrack.Tx, seq int, prio uint8, unsched bool) {
	d := packet.NewData(p.id, f.Dst, f.ID, seq, packet.DataPacketSize(f.Size, seq), prio)
	d.FlowSize = f.Size
	d.Unsched = unsched
	f.MarkSent(seq)
	p.ins.sentBytes.Add(int64(d.Size))
	if unsched {
		p.ins.unschedBytes.Add(int64(d.Size))
	}
	p.host.Send(d)
}

// OnPacket implements netsim.Protocol.
func (p *Proto) OnPacket(pkt *packet.Packet) {
	switch pkt.Kind {
	case packet.Notification:
		p.onNotification(pkt)
	case packet.Data:
		p.onData(pkt)
	case packet.Grant:
		p.onGrant(pkt)
	case packet.FinishReceiver:
		delete(p.tx, pkt.Flow)
	}
}

// ---- receiver side ----

func (p *Proto) ensureRx(pkt *packet.Packet) *rxState {
	if f, ok := p.rx[pkt.Flow]; ok {
		return f
	}
	f := &rxState{Rx: flowtrack.NewRx(pkt), lastProgress: p.eng.Now()}
	p.rx[pkt.Flow] = f
	// The unscheduled prefix is in flight without grants.
	for seq := 0; seq < f.Npkts && seq < p.windowPkts; seq++ {
		f.SkipGrant(seq)
	}
	// Loss detection: if the flow stalls, return granted-unreceived seqs
	// to the needed pool and re-grant them as scheduled packets. This is
	// Homa's timeout path and Aeolus's recovery path in one.
	f.checker = p.eng.AfterFunc(3*p.dataRTT/2, checkProgressFunc, p, f, 0)
	p.kickGranter()
	return f
}

// The timers' argument-form trampolines: the event carries the host (and
// the flow), so arming a timer or re-arming a tick allocates nothing.
func checkProgressFunc(a, b any, _ int) { a.(*Proto).checkProgress(b.(*rxState)) }

func grantTickFunc(a, _ any, _ int) { a.(*Proto).grantTick() }

func spendCreditFunc(a, _ any, _ int) { a.(*Proto).spendCredit() }

func (p *Proto) checkProgress(f *rxState) {
	if f.Done {
		return
	}
	// Gap-based drop detection: credited packets far below the received
	// frontier were dropped (selective dropping or overflow), not merely
	// delayed — revert them so they are re-requested as scheduled. The
	// slack absorbs spraying-induced reordering.
	if n := f.RevertGaps(16); n > 0 {
		p.kickGranter()
	}
	// Full stall: nothing at all arrived for a while — revert everything
	// outstanding (covers a fully dropped unscheduled prefix).
	if p.eng.Now().Sub(f.lastProgress) >= 3*p.dataRTT/2 && f.Outstanding > 0 {
		f.RevertStale(f.Npkts)
		p.kickGranter()
	}
	f.checker = p.eng.AfterFunc(3*p.dataRTT/2, checkProgressFunc, p, f, 0)
}

func (p *Proto) onNotification(pkt *packet.Packet) {
	p.ensureRx(pkt)
}

func (p *Proto) onData(pkt *packet.Packet) {
	f := p.ensureRx(pkt)
	wire := pkt.Size
	if pkt.Trimmed {
		wire = packet.HeaderSize // no payload credit
	}
	payload := f.MarkReceived(pkt.Seq, wire)
	if payload > 0 {
		f.lastProgress = p.eng.Now()
		p.col.Delivered(p.eng.Now(), payload)
	}
	if payload > 0 && f.Done {
		// This packet completed the flow (duplicates return 0 payload).
		p.completeRx(f)
		return
	}
	if f.Done {
		return
	}
	// Data-clocked granting keeps the pipe full.
	p.kickGranter()
}

func (p *Proto) completeRx(f *rxState) {
	f.checker.Cancel()
	opt := p.host.Topo().UnloadedFCT(f.Src, p.id, f.Size)
	p.col.FlowDone(stats.FlowRecord{
		ID: f.ID, Src: int32(f.Src), Dst: int32(p.id), Size: f.Size,
		Arrival: f.Arrival, Finish: p.eng.Now(), Optimal: opt,
	})
	fin := packet.NewControl(packet.FinishReceiver, p.id, f.Src, f.ID)
	p.host.Send(fin)
	// Keep the entry (Done) so duplicates don't recreate the flow.
	f.Release()
}

// kickGranter starts the paced grant loop if idle.
func (p *Proto) kickGranter() {
	if p.granting {
		return
	}
	p.granting = true
	p.grantTick()
}

// grantTick runs every MTU time: grant one packet to the best flow with
// window room, falling back through the overcommit set. SRPT order;
// deterministic flow-id tie-break. The receiver's total outstanding
// bytes — including unscheduled packets known (from notifications) to be
// in flight — are capped at the overcommit degree times one BDP, which is
// what keeps Homa's downlink queue bounded.
func (p *Proto) grantTick() {
	cands := p.grantCandidates()
	if len(cands) == 0 {
		p.granting = false
		return
	}
	granted := false
	for rank := 0; rank < len(cands) && rank < p.cfg.Overcommit; rank++ {
		f := cands[rank]
		if f.Outstanding >= p.windowPkts {
			continue
		}
		seq := f.NextNeeded()
		if seq < 0 {
			continue
		}
		f.Grant(seq)
		g := packet.NewControl(packet.Grant, p.id, f.Src, f.ID)
		g.Seq = seq
		g.Count = int(p.schedPrio(rank))
		p.ins.grants.Inc()
		p.ins.grantedBytes.Add(int64(packet.DataPacketSize(f.Size, seq)))
		p.host.Send(g)
		granted = true
		break
	}
	if !granted {
		// Every candidate's window is full: stall until data arrives.
		p.granting = false
		return
	}
	p.eng.AfterFunc(p.mtuTime, grantTickFunc, p, nil, 0)
}

// grantCandidates returns incomplete flows with grantable work, SRPT
// ordered, in a buffer the next call reuses.
func (p *Proto) grantCandidates() []*rxState {
	cands := p.cands[:0]
	// Map order is harmless: the sort below totally orders by (remaining, flow id).
	for _, f := range p.rx {
		if f.Done || f.NeededCnt() <= 0 {
			continue
		}
		cands = append(cands, f)
	}
	slices.SortFunc(cands, func(x, y *rxState) int {
		return cmp.Or(cmp.Compare(x.Remaining(), y.Remaining()), cmp.Compare(x.ID, y.ID))
	})
	p.cands = cands
	return cands
}

// ---- sender side ----

// onGrant queues the granted packet as credit. A sender granted by
// several receivers at once can still only transmit at its line rate, so
// credit is spent one packet per MTU time, smallest-remaining flow first
// (Homa's sender-side SRPT) — this is what keeps sender NIC queues empty
// and makes receiver-side window accounting meaningful.
func (p *Proto) onGrant(g *packet.Packet) {
	if p.tx[g.Flow] == nil {
		return
	}
	g.Keep() // queued as credit until spent
	p.credits = append(p.credits, g)
	if !p.pacing {
		p.pacing = true
		// Deferred one event: spending now could release g inside its own
		// OnPacket, which the packet ownership contract forbids (the
		// fabric still touches the packet after OnPacket returns).
		p.eng.AfterFunc(0, spendCreditFunc, p, nil, 0)
	}
}

// spendCredit transmits one granted packet per MTU time while credit is
// queued, yielding to unscheduled bursts already occupying the NIC.
func (p *Proto) spendCredit() {
	if len(p.credits) == 0 {
		p.pacing = false
		return
	}
	if p.host.NICQueuedBytes() >= 2*packet.MTU {
		p.eng.AfterFunc(p.mtuTime, spendCreditFunc, p, nil, 0)
		return
	}
	// Pick the credit whose flow has the fewest remaining bytes.
	best := -1
	var bestRem int64
	for i, g := range p.credits {
		f := p.tx[g.Flow]
		if f == nil {
			continue
		}
		rem := f.RemainingBytes()
		if best < 0 || rem < bestRem || (rem == bestRem && g.Flow < p.credits[best].Flow) {
			best, bestRem = i, rem
		}
	}
	if best < 0 {
		for _, g := range p.credits {
			packet.Release(g) // credit for flows that no longer exist
		}
		p.credits = p.credits[:0]
		p.pacing = false
		return
	}
	g := p.credits[best]
	p.credits[best] = p.credits[len(p.credits)-1]
	p.credits = p.credits[:len(p.credits)-1]
	f := p.tx[g.Flow]
	prio := uint8(g.Count)
	if prio == 0 || prio >= packet.NumPriorities {
		prio = packet.PrioDataLow
	}
	seq := g.Seq
	packet.Release(g) // spent
	p.sendData(f, seq, prio, false)
	p.eng.AfterFunc(p.mtuTime, spendCreditFunc, p, nil, 0)
}
