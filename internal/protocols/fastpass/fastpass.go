// Package fastpass implements a Fastpass-style centralized transport
// (Perry et al., SIGCOMM 2014), the related-work design the dcPIM paper
// contrasts against in §5: a central arbiter computes conflict-free
// sender↔receiver timeslot allocations, so the fabric runs essentially
// queue-free — but every flow, however small, pays a round trip through
// the arbiter before its first byte moves. That structural extra RTT is
// exactly the ≥2×-optimal short-flow latency the paper cites.
//
// Model: the arbiter runs co-located with host 0; demand reports and
// allocations travel as control packets through the same fabric (so
// arbiter latency is physical, not assumed). Every batch of eight
// timeslots the arbiter computes a greedy SRPT matching over backlogged
// src→dst pairs and grants each matched pair the batch.
package fastpass

import (
	"sort"

	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/protocols/flowtrack"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/workload"
)

const (
	arbiterHost = 0 // the host co-located with the arbiter
	batchSlots  = 8 // MTU timeslots allocated per matching
)

// FabricConfig returns the netsim configuration Fastpass expects: ECMP
// (the real system also assigns paths; conflict-free allocations make
// spraying unnecessary) and plain queues.
func FabricConfig() netsim.Config { return netsim.Config{Spray: true} }

// demand is the arbiter's view of one flow's backlog.
type demand struct {
	flow    uint64
	src     int
	dst     int
	remain  int // unallocated packets
	nextSeq int // next seq to allocate
}

// Proto is one host's Fastpass instance; the instance on arbiterHost also
// runs the arbiter.
type Proto struct {
	col *stats.Collector

	host *netsim.Host
	eng  *sim.Engine
	id   int

	mtuTime sim.Duration
	ctlRTT  sim.Duration

	tx   map[uint64]*flowtrack.Tx
	rx   map[uint64]*flowtrack.Rx // live incoming flows
	done map[uint64]struct{}      // ids of finished incoming flows

	// Arbiter state (arbiterHost only).
	demands map[uint64]*demand
	order   []uint64 // demand ids, kept sorted lazily

	// Sender allocation queue: granted (flow, count) pairs to pace out.
	allocQ  []alloc
	sending bool
}

type alloc struct {
	flow  uint64
	count int
}

// newProto returns an unattached Fastpass host.
func newProto(col *stats.Collector) *Proto {
	return &Proto{col: col,
		tx:   make(map[uint64]*flowtrack.Tx),
		rx:   make(map[uint64]*flowtrack.Rx),
		done: make(map[uint64]struct{}),
	}
}

// Attach installs Fastpass on every host of the fabric.
func Attach(fab *netsim.Fabric, col *stats.Collector) []*Proto {
	ps := make([]*Proto, fab.Topology().NumHosts)
	for i := range ps {
		ps[i] = newProto(col.ForShard(fab.ShardOfHost(i)))
		fab.AttachProtocol(i, ps[i])
	}
	return ps
}

// Start implements netsim.Protocol.
func (p *Proto) Start(h *netsim.Host) {
	p.host = h
	p.eng = h.Engine()
	p.id = h.ID()
	p.mtuTime = sim.TransmissionTime(packet.MTU, h.LineRate())
	p.ctlRTT = h.Topo().CtrlRTT()
	if p.id == arbiterHost {
		p.demands = make(map[uint64]*demand)
		p.eng.Schedule(0, p.arbiterTick)
	}
}

// OnFlowArrival reports the demand to the arbiter; nothing is sent until
// an allocation returns (the Fastpass tax on short flows).
func (p *Proto) OnFlowArrival(fl workload.Flow) {
	f := flowtrack.NewTx(fl.ID, fl.Dst, fl.Size, fl.Arrival)
	p.tx[f.ID] = f

	// The receiver still needs flow metadata for completion tracking.
	n := packet.NewControl(packet.Notification, p.id, f.Dst, f.ID)
	n.FlowSize = f.Size
	p.host.Send(n)

	p.reportDemand(f)
}

func (p *Proto) reportDemand(f *flowtrack.Tx) {
	rts := packet.NewControl(packet.RTS, p.id, arbiterHost, f.ID)
	rts.FlowSize = f.Size
	rts.Count = int32(f.Dst) // carry the true destination; the packet goes to the arbiter
	rts.Remaining = int64(f.Npkts-f.SentCnt) * packet.PayloadSize
	p.host.Send(rts)
}

// OnPacket implements netsim.Protocol.
func (p *Proto) OnPacket(pkt *packet.Packet) {
	switch pkt.Kind {
	case packet.RTS:
		p.onDemand(pkt)
	case packet.Grant:
		p.onAlloc(pkt)
	case packet.Notification:
		p.ensureRx(pkt)
	case packet.Data:
		p.onData(pkt)
	case packet.FinishReceiver:
		delete(p.tx, pkt.Flow)
	}
}

// ---- arbiter ----

func (p *Proto) onDemand(rts *packet.Packet) {
	if p.demands == nil {
		return // not the arbiter; stray packet
	}
	pkts := packet.PacketsForBytes(rts.Remaining)
	if pkts <= 0 {
		return
	}
	if d, ok := p.demands[rts.Flow]; ok {
		// Refresh (retransmitted report): keep the larger backlog view.
		if pkts > d.remain {
			d.remain = pkts
		}
		return
	}
	p.demands[rts.Flow] = &demand{
		flow: rts.Flow, src: rts.Src, dst: int(rts.Count),
		remain: pkts, nextSeq: packet.PacketsForBytes(rts.FlowSize) - pkts,
	}
	p.order = append(p.order, rts.Flow)
}

// arbiterTick runs once per batch of timeslots: greedy SRPT matching over
// backlogged pairs, one sender per receiver and vice versa, each matched
// pair allocated up to batchSlots packets.
func (p *Proto) arbiterTick() {
	defer p.eng.After(p.mtuTime*batchSlots, p.arbiterTick)
	if len(p.demands) == 0 {
		return
	}
	// SRPT order with id tie-break; drop exhausted demands lazily.
	live := p.order[:0]
	for _, id := range p.order {
		if d, ok := p.demands[id]; ok && d.remain > 0 {
			live = append(live, id)
		} else {
			delete(p.demands, id)
		}
	}
	p.order = live
	sort.Slice(p.order, func(i, j int) bool {
		a, b := p.demands[p.order[i]], p.demands[p.order[j]]
		if a.remain != b.remain {
			return a.remain < b.remain
		}
		return a.flow < b.flow
	})
	srcBusy := make(map[int]bool)
	dstBusy := make(map[int]bool)
	for _, id := range p.order {
		d := p.demands[id]
		if srcBusy[d.src] || dstBusy[d.dst] {
			continue
		}
		srcBusy[d.src] = true
		dstBusy[d.dst] = true
		n := batchSlots
		if n > d.remain {
			n = d.remain
		}
		d.remain -= n
		g := packet.NewControl(packet.Grant, p.id, d.src, d.flow)
		g.Count = int32(n)
		p.host.Send(g)
	}
}

// ---- sender ----

func (p *Proto) onAlloc(g *packet.Packet) {
	if p.tx[g.Flow] == nil {
		return
	}
	p.allocQ = append(p.allocQ, alloc{flow: g.Flow, count: int(g.Count)})
	if !p.sending {
		p.sending = true
		p.sendTick()
	}
}

// sendTick paces allocated packets at line rate.
func (p *Proto) sendTick() {
	for len(p.allocQ) > 0 {
		a := &p.allocQ[0]
		f := p.tx[a.flow]
		if f == nil || a.count == 0 {
			p.allocQ = p.allocQ[1:]
			continue
		}
		seq := f.SentCnt
		if seq >= f.Npkts {
			p.allocQ = p.allocQ[1:]
			continue
		}
		a.count--
		d := packet.NewData(p.id, f.Dst, f.ID, seq, packet.DataPacketSize(f.Size, seq), packet.PrioDataHigh)
		d.FlowSize = f.Size
		f.MarkSent(seq)
		p.host.Send(d)
		p.eng.After(p.mtuTime, p.sendTick)
		return
	}
	p.sending = false
}

// ---- receiver ----

// ensureRx returns the live flow state for pkt, creating it on the
// flow's first packet, or nil when the flow already finished: a duplicate
// of a finished flow is ignored.
func (p *Proto) ensureRx(pkt *packet.Packet) *flowtrack.Rx {
	if f, ok := p.rx[pkt.Flow]; ok {
		return f
	}
	if _, done := p.done[pkt.Flow]; done {
		return nil
	}
	f := flowtrack.NewRx(pkt)
	p.rx[pkt.Flow] = f
	return f
}

func (p *Proto) onData(pkt *packet.Packet) {
	f := p.ensureRx(pkt)
	if f == nil {
		return
	}
	if payload := f.MarkReceived(pkt.Seq, pkt.Size); payload > 0 {
		p.col.Delivered(payload)
	}
	if f.Done {
		p.col.FlowDone(f.Record(p.host))
		fin := packet.NewControl(packet.FinishReceiver, p.id, f.Src, f.ID)
		p.host.Send(fin)
		delete(p.rx, f.ID)
		p.done[f.ID] = struct{}{}
	}
}
