// Package hpcc implements an HPCC-style transport (Li et al., SIGCOMM
// 2019): senders carry in-band network telemetry (INT) on every data
// packet, receivers echo it on per-packet ACKs, and senders run the HPCC
// window update — estimating per-link utilization U and steering the
// inflight window toward η·BDP. The fabric runs PFC (lossless), which is
// also HPCC's documented failure mode under incast: PFC pauses propagate
// and stall innocent traffic.
package hpcc

import (
	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/protocols/flowtrack"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/workload"
)

// The HPCC paper's window-update parameters.
const (
	eta      = 0.95       // target utilization η
	maxStage = 5          // additive-increase stages before multiplicative alignment
	wai      = packet.MTU // additive increase W_AI per update, bytes
)

// FabricConfig returns the netsim configuration HPCC expects: per-flow
// ECMP (INT needs consistent paths) and PFC for losslessness.
func FabricConfig() netsim.Config {
	// HPCC runs over lossless RoCE fabrics: PFC watermarks with real
	// headroom behind them. Table 1 allows the 16 MB shared-switch-buffer
	// configuration; with 2 MB per port and 400 KB per-ingress pause
	// watermarks the fabric never tail-drops, and congestion manifests as
	// PFC pauses — HPCC's documented failure mode.
	return netsim.Config{
		Spray:           false,
		EnablePFC:       true,
		PortBufferBytes: 2 << 20,
		PFCPause:        400 << 10,
		PFCResume:       200 << 10,
	}
}

// Proto is one host's HPCC instance.
type Proto struct {
	col *stats.Collector
	ins instruments // shared by every host; registered by Attach

	host *netsim.Host
	eng  *sim.Engine
	id   int

	baseRTT sim.Duration
	bdp     int64

	tx   map[uint64]*txState
	rx   map[uint64]*rxState // live incoming flows
	done map[uint64]struct{} // ids of finished incoming flows
}

// instruments is HPCC's telemetry, shared across hosts. A collector
// without instruments hands out zero Counters, which record nothing.
type instruments struct {
	updates stats.Counter // window updates (per-ACK)
}

type txState struct {
	*flowtrack.Tx

	w         float64 // current window, bytes
	wc        float64 // reference window
	u         float64 // utilization estimate
	incStage  int
	lastINT   []packet.INTHop
	lastWcSeq int // cumack needed before the next Wc update

	nextSeq  int
	cumAck   int   // packets acknowledged in order
	inflight int64 // wire bytes in flight
	rtoTimer sim.Timer
	lastAck  sim.Time
}

type rxState struct {
	*flowtrack.Rx
	cum int // contiguous received prefix
}

// newProto returns an unattached HPCC host.
func newProto(col *stats.Collector) *Proto {
	return &Proto{col: col,
		tx:   make(map[uint64]*txState),
		rx:   make(map[uint64]*rxState),
		done: make(map[uint64]struct{}),
	}
}

// Attach installs HPCC on every host of the fabric and registers its
// instruments on col.
func Attach(fab *netsim.Fabric, col *stats.Collector) []*Proto {
	ins := instruments{updates: col.Counter("hpcc/window_updates")}
	ps := make([]*Proto, fab.Topology().NumHosts)
	for i := range ps {
		ps[i] = newProto(col.ForShard(fab.ShardOfHost(i)))
		ps[i].ins = ins
		fab.AttachProtocol(i, ps[i])
	}
	return ps
}

// Start implements netsim.Protocol.
func (p *Proto) Start(h *netsim.Host) {
	p.host = h
	p.eng = h.Engine()
	p.id = h.ID()
	p.baseRTT = h.Topo().DataRTT()
	p.bdp = h.Topo().BDP()
}

// OnFlowArrival opens the flow at a full BDP window (line rate in the
// first RTT — HPCC's low-latency start).
func (p *Proto) OnFlowArrival(fl workload.Flow) {
	f := &txState{
		Tx: flowtrack.NewTx(fl.ID, fl.Dst, fl.Size, fl.Arrival),
		w:  float64(p.bdp), wc: float64(p.bdp),
		lastAck: p.eng.Now(),
	}
	p.tx[f.ID] = f
	p.trySend(f)
	p.armRTO(f)
}

func (p *Proto) armRTO(f *txState) {
	f.rtoTimer = p.eng.After(3*p.baseRTT, func() { p.checkRTO(f) })
}

// checkRTO is a safety net: PFC makes loss near-impossible, but a lost
// control packet could strand a window. Go-back-N from the cumulative ack.
func (p *Proto) checkRTO(f *txState) {
	if f.Done {
		return
	}
	if p.eng.Now().Sub(f.lastAck) >= 3*p.baseRTT && f.inflight > 0 {
		f.nextSeq = f.cumAck
		f.inflight = 0
		p.trySend(f)
	}
	p.armRTO(f)
}

// trySend fills the window.
func (p *Proto) trySend(f *txState) {
	w := int64(f.w)
	if w < packet.MTU {
		w = packet.MTU // always allow one packet
	}
	for f.nextSeq < f.Npkts && f.inflight+packet.MTU <= w {
		size := packet.DataPacketSize(f.Size, f.nextSeq)
		d := packet.NewData(p.id, f.Dst, f.ID, f.nextSeq, size, packet.PrioDataHigh)
		d.FlowSize = f.Size
		d.CollectINT = true
		f.MarkSent(f.nextSeq)
		f.nextSeq++
		f.inflight += int64(size)
		p.host.Send(d)
	}
}

// OnPacket implements netsim.Protocol.
func (p *Proto) OnPacket(pkt *packet.Packet) {
	switch pkt.Kind {
	case packet.Data:
		p.onData(pkt)
	case packet.Ack:
		p.onAck(pkt)
	case packet.FinishReceiver:
		if f := p.tx[pkt.Flow]; f != nil {
			f.Done = true
			f.rtoTimer.Cancel()
			delete(p.tx, pkt.Flow)
		}
	}
}

// ---- receiver side ----

// ensureRx returns the live flow state for pkt, creating it on the
// flow's first packet, or nil when the flow already finished.
func (p *Proto) ensureRx(pkt *packet.Packet) *rxState {
	if f, ok := p.rx[pkt.Flow]; ok {
		return f
	}
	if _, done := p.done[pkt.Flow]; done {
		return nil
	}
	f := &rxState{Rx: flowtrack.NewRx(pkt)}
	p.rx[pkt.Flow] = f
	return f
}

// onData acks every data packet, a duplicate of a finished flow too: its
// cumulative ack is the whole flow.
func (p *Proto) onData(pkt *packet.Packet) {
	f := p.ensureRx(pkt)
	cum := packet.PacketsForBytes(pkt.FlowSize) // all of a finished flow
	if f != nil {
		if payload := f.MarkReceived(pkt.Seq, pkt.Size); payload > 0 {
			p.col.Delivered(payload)
			for f.cum < f.Npkts && f.State(f.cum) == flowtrack.Received {
				f.cum++
			}
		}
		cum = f.cum
	}
	// Per-packet ACK echoing the telemetry.
	ack := packet.NewControl(packet.Ack, p.id, pkt.Src, pkt.Flow)
	ack.Seq = pkt.Seq
	ack.CumAck = cum
	ack.Count = int32(pkt.Size) // echo wire size for inflight accounting
	// Copy the telemetry rather than aliasing it: the fabric recycles pkt
	// (and reuses its INT backing array) right after OnPacket returns,
	// while the ack is just beginning its journey back to the sender.
	ack.SetINT(pkt.INT())
	p.host.Send(ack)

	if f != nil && f.Done {
		p.col.FlowDone(f.Record(p.host))
		fin := packet.NewControl(packet.FinishReceiver, p.id, f.Src, f.ID)
		p.host.Send(fin)
		delete(p.rx, f.ID)
		p.done[f.ID] = struct{}{}
	}
}

// ---- sender side: the HPCC window update ----

func (p *Proto) onAck(ack *packet.Packet) {
	f := p.tx[ack.Flow]
	if f == nil {
		return
	}
	f.lastAck = p.eng.Now()
	f.inflight -= int64(ack.Count)
	if f.inflight < 0 {
		f.inflight = 0
	}
	if ack.CumAck > f.cumAck {
		f.cumAck = ack.CumAck
	}

	u := p.measureInflight(f, ack.INT())
	updateWc := ack.Seq >= f.lastWcSeq
	p.computeWind(f, u, updateWc)
	if updateWc {
		f.lastWcSeq = f.nextSeq // next reference update one window later
	}
	p.trySend(f)
}

// measureInflight is HPCC's Algorithm 1: per-link utilization from
// consecutive INT snapshots, EWMA-folded into the flow's U estimate.
func (p *Proto) measureInflight(f *txState, hops []packet.INTHop) float64 {
	if len(hops) == 0 {
		return f.u
	}
	if len(f.lastINT) != len(hops) {
		// First sample on this path: just record.
		f.lastINT = append(f.lastINT[:0], hops...)
		return f.u
	}
	T := p.baseRTT.Seconds()
	u := 0.0
	tau := T
	for i, h := range hops {
		prev := f.lastINT[i]
		dt := h.Timestamp.Sub(prev.Timestamp).Seconds()
		if dt <= 0 {
			continue
		}
		txRate := float64(h.TxBytes-prev.TxBytes) * 8 / dt
		qlen := h.QueueBytes
		if prev.QueueBytes < qlen {
			qlen = prev.QueueBytes
		}
		ui := float64(qlen)*8/(h.RateBps*T) + txRate/h.RateBps
		if ui > u {
			u = ui
			tau = dt
		}
	}
	if tau > T {
		tau = T
	}
	f.u = (1-tau/T)*f.u + (tau/T)*u
	f.lastINT = append(f.lastINT[:0], hops...)
	return f.u
}

// computeWind is HPCC's window update: multiplicative alignment toward
// η when over target or out of probe stages, additive probe otherwise.
func (p *Proto) computeWind(f *txState, u float64, updateWc bool) {
	if u >= eta || f.incStage >= maxStage {
		ratio := u / eta
		if ratio < 0.01 {
			ratio = 0.01
		}
		f.w = f.wc/ratio + wai
		if updateWc {
			f.incStage = 0
			f.wc = f.w
		}
	} else {
		f.w = f.wc + wai
		if updateWc {
			f.incStage++
			f.wc = f.w
		}
	}
	// Clamp to sane bounds: at most a few BDPs, at least one packet.
	if max := 4 * float64(p.bdp); f.w > max {
		f.w = max
	}
	if f.w < packet.MTU {
		f.w = packet.MTU
	}
	p.col.Add(p.ins.updates, 1)
}
