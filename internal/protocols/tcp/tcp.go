// Package tcp implements a window-based TCP engine at simulator packet
// granularity — slow start, congestion avoidance, fast retransmit on three
// duplicate ACKs, adaptive RTO, per-packet cumulative ACKs with ECN echo —
// parameterized by a CongestionControl variant. Two variants ship: DCTCP
// (ECN-fraction window control) and Cubic (loss-based), the two
// comparators of the paper's testbed evaluation (§4.2, Figure 7).
package tcp

import (
	"math"

	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/protocols/flowtrack"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/workload"
)

// MSS is the sender's segment payload size.
const MSS = packet.PayloadSize

const (
	initialWindow = 10 * MSS // bytes, every flow's first window
	dctcpK        = 65       // DCTCP's ECN marking threshold, packets
	dctcpG        = 1.0 / 16 // DCTCP's α gain g
)

// CongestionControl is the pluggable window policy. Windows are in bytes.
type CongestionControl interface {
	// Init is called once per flow with the initial window.
	Init(cwnd float64)
	// OnAck processes newly acknowledged bytes; ecn reports whether this
	// ACK echoed a congestion mark; rtt is the smoothed RTT estimate.
	OnAck(ackedBytes int64, ecn bool, now sim.Time, rtt sim.Duration)
	// OnLoss reacts to a loss event (fast retransmit or RTO).
	OnLoss(now sim.Time)
	// Window returns the current congestion window in bytes.
	Window() float64
}

// Config tunes the TCP host.
type Config struct {
	// NewCC builds the per-flow congestion controller.
	NewCC func() CongestionControl
	// ECNThreshold configures the fabric's marking threshold in bytes
	// (DCTCP); 0 disables marking.
	ECNThreshold int64

	// name prefixes the instruments' names ("dctcp", "cubic"); each
	// constructor sets it.
	name string
}

// DCTCPConfig returns a DCTCP deployment: ECN marking at dctcpK packets
// and the DCTCP alpha controller.
func DCTCPConfig() Config {
	return Config{
		NewCC:        func() CongestionControl { return NewDCTCP() },
		ECNThreshold: dctcpK * packet.MTU,
		name:         "dctcp",
	}
}

// CubicConfig returns a TCP Cubic deployment (loss-based, drop-tail).
func CubicConfig() Config {
	return Config{NewCC: func() CongestionControl { return NewCubic() }, name: "cubic"}
}

// FabricConfig returns the netsim configuration for this deployment:
// per-flow ECMP (TCP needs mostly-in-order delivery) and optional ECN.
func (c Config) FabricConfig() netsim.Config {
	return netsim.Config{Spray: false, ECNThresholdBytes: c.ECNThreshold}
}

// Proto is one host's TCP instance.
type Proto struct {
	cfg Config
	col *stats.Collector
	ins instruments // shared by every host; registered by Attach

	host *netsim.Host
	eng  *sim.Engine
	id   int

	tx   map[uint64]*txState
	rx   map[uint64]*rxState // live incoming flows
	done map[uint64]struct{} // ids of finished incoming flows
}

// instruments is TCP's telemetry, shared across hosts. A collector
// without instruments hands out zero Counters, which record nothing.
type instruments struct {
	windowUpdates stats.Counter // congestion-window updates (per-ACK)
	fastRetx      stats.Counter
	rtos          stats.Counter
}

type txState struct {
	*flowtrack.Tx
	cc CongestionControl

	nextSeq  int
	cumAck   int
	dupAcks  int
	inflight int64

	sentAt   map[int]sim.Time // per in-flight seq, for RTT samples
	srtt     sim.Duration
	rttvar   sim.Duration
	rto      sim.Duration
	rtoTimer sim.Timer
	recover  int // fast-recovery high-water seq
}

type rxState struct {
	*flowtrack.Rx
	cum int
}

// newProto returns an unattached TCP host.
func newProto(cfg Config, col *stats.Collector) *Proto {
	if cfg.NewCC == nil {
		panic("tcp: Config.NewCC is required")
	}
	return &Proto{cfg: cfg, col: col,
		tx:   make(map[uint64]*txState),
		rx:   make(map[uint64]*rxState),
		done: make(map[uint64]struct{}),
	}
}

// Attach installs the TCP variant on every host of the fabric and
// registers its instruments on col under the variant's name.
func Attach(fab *netsim.Fabric, cfg Config, col *stats.Collector) []*Proto {
	ins := instruments{
		windowUpdates: col.Counter(cfg.name + "/window_updates"),
		fastRetx:      col.Counter(cfg.name + "/fast_retransmits"),
		rtos:          col.Counter(cfg.name + "/rtos"),
	}
	ps := make([]*Proto, fab.Topology().NumHosts)
	for i := range ps {
		ps[i] = newProto(cfg, col.ForShard(fab.ShardOfHost(i)))
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
}

// OnFlowArrival implements netsim.Protocol.
func (p *Proto) OnFlowArrival(fl workload.Flow) {
	f := &txState{
		Tx:     flowtrack.NewTx(fl.ID, fl.Dst, fl.Size, fl.Arrival),
		cc:     p.cfg.NewCC(),
		sentAt: make(map[int]sim.Time),
		srtt:   p.host.Topo().DataRTT(),
		rto:    4 * p.host.Topo().DataRTT(),
	}
	f.cc.Init(initialWindow)
	p.tx[f.ID] = f
	p.trySend(f)
	p.armRTO(f)
}

func (p *Proto) trySend(f *txState) {
	w := int64(f.cc.Window())
	if w < MSS {
		w = MSS
	}
	for f.nextSeq < f.Npkts && f.inflight+MSS <= w {
		p.sendSeq(f, f.nextSeq)
		f.nextSeq++
	}
}

func (p *Proto) sendSeq(f *txState, seq int) {
	size := packet.DataPacketSize(f.Size, seq)
	d := packet.NewData(p.id, f.Dst, f.ID, seq, size, packet.PrioDataHigh)
	d.FlowSize = f.Size
	f.MarkSent(seq)
	f.inflight += int64(size)
	f.sentAt[seq] = p.eng.Now()
	p.host.Send(d)
}

func (p *Proto) armRTO(f *txState) {
	f.rtoTimer.Cancel()
	f.rtoTimer = p.eng.After(f.rto, func() { p.onRTO(f) })
}

func (p *Proto) onRTO(f *txState) {
	if f.Done || f.cumAck >= f.Npkts {
		return
	}
	// Retransmit from the cumulative ack; collapse the window.
	p.col.Add(p.ins.rtos, 1)
	f.cc.OnLoss(p.eng.Now())
	f.cc.OnLoss(p.eng.Now()) // RTO is a stronger signal than a dup-ack loss
	f.nextSeq = f.cumAck
	f.inflight = 0
	f.dupAcks = 0
	f.rto *= 2 // exponential backoff
	if f.rto > sim.Duration(10*sim.Millisecond) {
		f.rto = 10 * sim.Millisecond
	}
	p.trySend(f)
	p.armRTO(f)
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

// ---- receiver ----

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
	ack := packet.NewControl(packet.Ack, p.id, pkt.Src, pkt.Flow)
	ack.Seq = pkt.Seq
	ack.CumAck = cum
	ack.ECN = pkt.ECN
	ack.Count = int32(pkt.Size)
	p.host.Send(ack)

	if f != nil && f.Done {
		p.col.FlowDone(f.Record(p.host))
		fin := packet.NewControl(packet.FinishReceiver, p.id, f.Src, f.ID)
		p.host.Send(fin)
		delete(p.rx, f.ID)
		p.done[f.ID] = struct{}{}
	}
}

// ---- sender ----

func (p *Proto) onAck(ack *packet.Packet) {
	f := p.tx[ack.Flow]
	if f == nil {
		return
	}
	now := p.eng.Now()
	// RTT sample from the echoed seq.
	if t0, ok := f.sentAt[ack.Seq]; ok {
		sample := now.Sub(t0)
		delete(f.sentAt, ack.Seq)
		if f.srtt == 0 {
			f.srtt, f.rttvar = sample, sample/2
		} else {
			d := f.srtt - sample
			if d < 0 {
				d = -d
			}
			f.rttvar = (3*f.rttvar + d) / 4
			f.srtt = (7*f.srtt + sample) / 8
		}
		f.rto = f.srtt + 4*f.rttvar
		if min := 2 * f.srtt; f.rto < min {
			f.rto = min
		}
	}

	if ack.CumAck > f.cumAck {
		ackedPkts := ack.CumAck - f.cumAck
		f.cumAck = ack.CumAck
		f.dupAcks = 0
		f.inflight -= int64(ackedPkts) * MSS
		if f.inflight < 0 {
			f.inflight = 0
		}
		f.cc.OnAck(int64(ackedPkts)*MSS, ack.ECN, now, f.srtt)
		p.armRTO(f)
	} else if ack.CumAck == f.cumAck && f.cumAck < f.Npkts {
		// Duplicate cumulative ack: an out-of-order arrival beyond a hole.
		f.dupAcks++
		f.cc.OnAck(0, ack.ECN, now, f.srtt)
		if f.dupAcks == 3 && f.cumAck >= f.recover {
			p.col.Add(p.ins.fastRetx, 1)
			f.cc.OnLoss(now)
			f.recover = f.nextSeq
			p.sendSeq(f, f.cumAck) // fast retransmit the hole
		}
	}
	p.col.Add(p.ins.windowUpdates, 1)
	p.trySend(f)
}

// ---- DCTCP variant ----

// DCTCP tracks the fraction of ECN-marked acknowledgements per window and
// scales the window by α/2 once per RTT (Alizadeh et al., SIGCOMM 2010).
type DCTCP struct {
	alpha    float64
	cwnd     float64
	ssthresh float64

	ackedBytes  int64
	markedBytes int64
	windowEnd   sim.Time
	sawMark     bool
}

// NewDCTCP returns the DCTCP controller, with gain dctcpG.
func NewDCTCP() *DCTCP {
	return &DCTCP{ssthresh: math.MaxFloat64}
}

// Init implements CongestionControl.
func (d *DCTCP) Init(cwnd float64) { d.cwnd = cwnd }

// Window implements CongestionControl.
func (d *DCTCP) Window() float64 { return d.cwnd }

// OnAck implements CongestionControl.
func (d *DCTCP) OnAck(acked int64, ecn bool, now sim.Time, rtt sim.Duration) {
	d.ackedBytes += acked
	if ecn {
		d.markedBytes += acked
		d.sawMark = true
	}
	if now >= d.windowEnd {
		// Close the observation window: fold the mark fraction into α
		// and cut once if anything was marked.
		if d.ackedBytes > 0 {
			frac := float64(d.markedBytes) / float64(d.ackedBytes)
			d.alpha = (1-dctcpG)*d.alpha + dctcpG*frac
		}
		if d.sawMark {
			d.cwnd *= 1 - d.alpha/2
			if d.cwnd < MSS {
				d.cwnd = MSS
			}
			d.ssthresh = d.cwnd
		}
		d.ackedBytes, d.markedBytes, d.sawMark = 0, 0, false
		d.windowEnd = now.Add(rtt)
		return
	}
	// Growth: slow start below ssthresh, else +MSS per RTT.
	if d.cwnd < d.ssthresh {
		d.cwnd += float64(acked)
	} else if d.cwnd > 0 {
		d.cwnd += float64(MSS) * float64(acked) / d.cwnd
	}
}

// OnLoss implements CongestionControl.
func (d *DCTCP) OnLoss(now sim.Time) {
	d.cwnd /= 2
	if d.cwnd < MSS {
		d.cwnd = MSS
	}
	d.ssthresh = d.cwnd
}

// ---- Cubic variant ----

// Cubic grows the window along W(t) = C·(t−K)³ + Wmax after each loss
// (Ha, Rhee, Xu 2008), with slow start before the first loss.
type Cubic struct {
	c        float64 // scaling constant, windows in MSS units
	beta     float64
	cwnd     float64
	ssthresh float64
	wmax     float64
	epoch    sim.Time
	k        float64 // seconds
	inEpoch  bool
}

// NewCubic returns the Cubic controller with standard constants
// (C = 0.4, β = 0.7).
func NewCubic() *Cubic {
	return &Cubic{c: 0.4, beta: 0.7, ssthresh: math.MaxFloat64}
}

// Init implements CongestionControl.
func (cu *Cubic) Init(cwnd float64) { cu.cwnd = cwnd }

// Window implements CongestionControl.
func (cu *Cubic) Window() float64 { return cu.cwnd }

// OnAck implements CongestionControl.
func (cu *Cubic) OnAck(acked int64, ecn bool, now sim.Time, rtt sim.Duration) {
	if acked == 0 {
		return
	}
	if cu.cwnd < cu.ssthresh {
		cu.cwnd += float64(acked)
		return
	}
	if !cu.inEpoch {
		cu.inEpoch = true
		cu.epoch = now
		cu.wmax = cu.cwnd
		cu.k = 0
	}
	t := now.Sub(cu.epoch).Seconds()
	// Cubic curve and the TCP-friendly (Reno-tracking) floor, both in
	// MSS units; at datacenter RTTs the friendly region dominates.
	wmaxP := cu.wmax / MSS
	targetP := cu.c*math.Pow(t-cu.k, 3) + wmaxP
	if rttS := rtt.Seconds(); rttS > 0 {
		friendlyP := wmaxP*cu.beta + 3*(1-cu.beta)/(1+cu.beta)*(t/rttS)
		if friendlyP > targetP {
			targetP = friendlyP
		}
	}
	if target := targetP * MSS; target > cu.cwnd {
		// Approach the target over roughly one window of acks.
		cu.cwnd += (target - cu.cwnd) * float64(acked) / cu.cwnd
	}
}

// OnLoss implements CongestionControl.
func (cu *Cubic) OnLoss(now sim.Time) {
	cu.wmax = cu.cwnd
	cu.cwnd *= cu.beta
	if cu.cwnd < MSS {
		cu.cwnd = MSS
	}
	cu.ssthresh = cu.cwnd
	cu.epoch = now
	cu.k = math.Cbrt(cu.wmax * (1 - cu.beta) / (cu.c * MSS))
	cu.inEpoch = true
}
