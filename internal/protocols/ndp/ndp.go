// Package ndp implements an NDP-style transport (Handley et al., SIGCOMM
// 2017): switches run tiny queues and trim overflowing data packets to
// headers; receivers turn trimmed headers into NACKs and clock
// retransmissions and fresh packets with a paced pull queue; senders blast
// the first BDP blindly. NDP uses no data priorities (trimmed headers and
// control ride the high-priority class).
package ndp

import (
	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/protocols/flowtrack"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/workload"
)

// trimQueuePkts is the switch queue depth, in full packets, beyond which
// data is trimmed: the NDP paper's setting.
const trimQueuePkts = 8

// FabricConfig returns the netsim configuration NDP requires: spraying and
// aggressive trimming at shallow queues.
func FabricConfig() netsim.Config {
	return netsim.Config{
		Spray:              true,
		TrimThresholdBytes: trimQueuePkts * packet.MTU,
	}
}

// Proto is one host's NDP instance.
type Proto struct {
	col *stats.Collector
	ins instruments // shared by every host; registered by Attach

	host *netsim.Host
	eng  *sim.Engine
	id   int

	initPkts int // the blind first window: 1 BDP
	mtuTime  sim.Duration
	dataRTT  sim.Duration

	tx   map[uint64]*txState
	rx   map[uint64]*rxState // live incoming flows
	done map[uint64]struct{} // ids of finished incoming flows

	pullQ     []pullRef // FIFO of flows owed a pull (fresh data)
	pullQFast []pullRef // priority pulls for retransmissions (trims)
	pulling   bool
}

// instruments is NDP's telemetry, shared across hosts. A collector
// without instruments hands out zero Counters, which record nothing.
type instruments struct {
	sentBytes stats.Counter // transmitted data wire bytes (incl. retransmissions)
	pulls     stats.Counter // pull credits issued by receivers
	nacks     stats.Counter // trim/loss NACKs processed by senders
}

type pullRef struct {
	flow uint64
	src  int
}

type txState struct {
	*flowtrack.Tx
	retx      []int // NACKed seqs awaiting pull
	next      int   // next fresh seq beyond the initial window
	owedPulls int   // pulls that found nothing to send (NACK still in flight)
}

type rxState struct {
	*flowtrack.Rx
	checker sim.Timer
}

// newProto returns an unattached NDP host.
func newProto(col *stats.Collector) *Proto {
	return &Proto{col: col,
		tx:   make(map[uint64]*txState),
		rx:   make(map[uint64]*rxState),
		done: make(map[uint64]struct{}),
	}
}

// Attach installs NDP on every host of the fabric and registers its
// instruments on col.
func Attach(fab *netsim.Fabric, col *stats.Collector) []*Proto {
	ins := instruments{
		sentBytes: col.Counter("ndp/sent_bytes"),
		pulls:     col.Counter("ndp/pulls"),
		nacks:     col.Counter("ndp/nacks"),
	}
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
	p.initPkts = packet.PacketsForBytes(h.Topo().BDP())
	p.mtuTime = sim.TransmissionTime(packet.MTU, h.LineRate())
	p.dataRTT = h.Topo().DataRTT()
}

// OnFlowArrival blasts the first window; the rest is pull-clocked.
func (p *Proto) OnFlowArrival(fl workload.Flow) {
	f := &txState{Tx: flowtrack.NewTx(fl.ID, fl.Dst, fl.Size, fl.Arrival)}
	p.tx[f.ID] = f

	n := packet.NewControl(packet.Notification, p.id, f.Dst, f.ID)
	n.FlowSize = f.Size
	p.host.Send(n)

	for seq := 0; seq < f.Npkts && seq < p.initPkts; seq++ {
		p.sendData(f, seq, packet.PrioDataHigh)
	}
	f.next = p.initPkts
}

func (p *Proto) sendData(f *txState, seq int, prio uint8) {
	d := packet.NewData(p.id, f.Dst, f.ID, seq, packet.DataPacketSize(f.Size, seq), prio)
	d.FlowSize = f.Size
	f.MarkSent(seq)
	p.col.Add(p.ins.sentBytes, int64(d.Size))
	p.host.Send(d)
}

// OnPacket implements netsim.Protocol.
func (p *Proto) OnPacket(pkt *packet.Packet) {
	switch pkt.Kind {
	case packet.Notification:
		p.ensureRx(pkt)
	case packet.Data:
		p.onData(pkt)
	case packet.Nack:
		p.onNack(pkt)
	case packet.Pull:
		p.onPull(pkt)
	case packet.FinishReceiver:
		delete(p.tx, pkt.Flow)
	}
}

// ---- receiver side ----

// ensureRx returns the live flow state for pkt, creating it on the
// flow's first packet, or nil when the flow already finished: a duplicate
// of a finished flow is ignored.
func (p *Proto) ensureRx(pkt *packet.Packet) *rxState {
	if f, ok := p.rx[pkt.Flow]; ok {
		return f
	}
	if _, done := p.done[pkt.Flow]; done {
		return nil
	}
	f := &rxState{Rx: flowtrack.NewRx(pkt)}
	p.rx[pkt.Flow] = f
	// The blind window is implicitly outstanding.
	for seq := 0; seq < f.Npkts && seq < p.initPkts; seq++ {
		f.SkipGrant(seq)
	}
	// Stall detector: NDP relies on trimmed headers for loss signals, but
	// whole-packet losses (e.g. of headers under extreme load) need a
	// timeout: re-pull anything outstanding.
	f.checker = p.eng.AfterFunc(3*p.dataRTT, checkStallFunc, p, f, 0)
	return f
}

// The timers' argument-form trampolines: the event carries the host (and
// the flow), so arming a timer or re-arming a tick allocates nothing.
func checkStallFunc(a, b any, _ int) { a.(*Proto).checkStall(b.(*rxState)) }

func pullTickFunc(a, _ any, _ int) { a.(*Proto).pullTick() }

func (p *Proto) checkStall(f *rxState) {
	if f.Done {
		return
	}
	if n := f.RevertStale(f.Npkts); n > 0 {
		// Re-pull a bounded batch per cycle: re-injecting a whole window
		// at once would recreate the very storm that trimmed it.
		if n > 8 {
			n = 8
		}
		for i := 0; i < n; i++ {
			if seq := f.NextNeeded(); seq >= 0 {
				f.Grant(seq)
				p.enqueuePullNack(f, seq)
			}
		}
	}
	f.checker = p.eng.AfterFunc(3*p.dataRTT, checkStallFunc, p, f, 0)
}

// enqueuePullNack NACKs seq to the sender (so it rejoins the retransmit
// set) and schedules a priority pull for the flow.
func (p *Proto) enqueuePullNack(f *rxState, seq int) {
	nack := packet.NewControl(packet.Nack, p.id, f.Src, f.ID)
	nack.Seq = seq
	p.host.Send(nack)
	p.enqueuePullFast(f)
}

func (p *Proto) onData(pkt *packet.Packet) {
	f := p.ensureRx(pkt)
	if f == nil {
		return
	}
	if pkt.Trimmed {
		// Header arrived, payload was cut: NACK for retransmission and
		// schedule a pull slot for it.
		if pkt.Seq >= 0 && pkt.Seq < f.Npkts && f.State(pkt.Seq) != flowtrack.Received {
			// Stays in Granted state: the retransmission is in the
			// sender's retx queue and will be pulled.
			nack := packet.NewControl(packet.Nack, p.id, f.Src, f.ID)
			nack.Seq = pkt.Seq
			p.host.Send(nack)
			p.enqueuePullFast(f)
		}
		return
	}
	payload := f.MarkReceived(pkt.Seq, pkt.Size)
	if payload > 0 {
		p.col.Delivered(payload)
	}
	if f.Done {
		p.completeRx(f)
		return
	}
	// Each arrival earns the flow another pull if work remains: either
	// fresh packets beyond the window or future retransmissions.
	if f.NeededCnt() > 0 {
		next := f.NextNeeded()
		if next >= 0 {
			f.Grant(next)
			p.enqueuePull(f)
		}
	}
}

func (p *Proto) completeRx(f *rxState) {
	f.checker.Cancel()
	p.col.FlowDone(f.Record(p.host))
	fin := packet.NewControl(packet.FinishReceiver, p.id, f.Src, f.ID)
	p.host.Send(fin)
	delete(p.rx, f.ID)
	p.done[f.ID] = struct{}{}
}

// enqueuePull adds one pull slot for the flow and starts the paced puller.
func (p *Proto) enqueuePull(f *rxState) {
	p.pullQ = append(p.pullQ, pullRef{flow: f.ID, src: f.Src})
	p.kickPuller()
}

// enqueuePullFast adds a retransmission pull, served before fresh pulls —
// NDP expedites recovery of trimmed packets.
func (p *Proto) enqueuePullFast(f *rxState) {
	p.pullQFast = append(p.pullQFast, pullRef{flow: f.ID, src: f.Src})
	p.kickPuller()
}

func (p *Proto) kickPuller() {
	if !p.pulling {
		p.pulling = true
		p.pullTick()
	}
}

// pullTick drains the pull queues at line rate (one pull per MTU time),
// retransmission pulls first.
func (p *Proto) pullTick() {
	for len(p.pullQFast) > 0 || len(p.pullQ) > 0 {
		var ref pullRef
		if len(p.pullQFast) > 0 {
			ref = p.pullQFast[0]
			p.pullQFast = p.pullQFast[1:]
		} else {
			ref = p.pullQ[0]
			p.pullQ = p.pullQ[1:]
		}
		if _, live := p.rx[ref.flow]; !live {
			continue
		}
		pull := packet.NewControl(packet.Pull, p.id, ref.src, ref.flow)
		p.col.Add(p.ins.pulls, 1)
		p.host.Send(pull)
		p.eng.AfterFunc(p.mtuTime, pullTickFunc, p, nil, 0)
		return
	}
	p.pulling = false
}

// ---- sender side ----

func (p *Proto) onNack(pkt *packet.Packet) {
	f := p.tx[pkt.Flow]
	if f == nil {
		return
	}
	p.col.Add(p.ins.nacks, 1)
	for _, s := range f.retx {
		if s == pkt.Seq {
			return // already queued
		}
	}
	f.retx = append(f.retx, pkt.Seq)
	// Under spraying, the pull paired with this NACK may have overtaken
	// it and found nothing to send; spend one owed pull now so the
	// retransmission is not stranded until the stall timer. owedPulls is
	// capped at one so loss storms cannot bypass pull pacing in bulk.
	if f.owedPulls > 0 {
		f.owedPulls = 0
		seq := f.retx[0]
		f.retx = f.retx[1:]
		p.sendData(f, seq, packet.PrioShort)
	}
}

// onPull transmits one packet: queued retransmissions first, then the next
// fresh packet.
func (p *Proto) onPull(pkt *packet.Packet) {
	f := p.tx[pkt.Flow]
	if f == nil {
		return
	}
	if len(f.retx) > 0 {
		// NDP prioritizes retransmissions so a once-trimmed packet is
		// very unlikely to be trimmed again.
		seq := f.retx[0]
		f.retx = f.retx[1:]
		p.sendData(f, seq, packet.PrioShort)
		return
	}
	if f.next < f.Npkts {
		p.sendData(f, f.next, packet.PrioDataHigh)
		f.next++
		return
	}
	if f.owedPulls < 1 {
		f.owedPulls++
	}
}
