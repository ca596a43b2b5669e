package netsim

import (
	"math/rand"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
)

// queued is one buffered packet plus the ingress port it arrived through
// (for PFC accounting; -1 when not applicable).
type queued struct {
	p  *packet.Packet
	in int
}

// outPort models one transmit side of a full-duplex link: eight
// strict-priority FIFO queues sharing a byte budget, a serializing
// transmitter, and the attached link's rate and propagation delay.
// A port belongs either to a switch (owner set) or to a host NIC.
// A port's checkpoint (outPort.captureState) covers the dynamic plane:
// queues, byte counts, PFC/fault state, and the boundary arrival
// sequence. Link parameters and device wiring are static topology,
// re-created identically by building the fabric before restore.
type outPort struct {
	fab      *Fabric      //ckpt:skip owner back-pointer, re-established by construction
	sh       *shardState  //ckpt:skip shard wiring, re-established by construction
	rng      *rand.Rand   //ckpt:skip aliases the owning device's stream; its position is captured there
	rate     float64      //ckpt:skip static link parameter from topology
	delay    sim.Duration //ckpt:skip static link parameter from topology
	capacity int64        //ckpt:skip static link parameter from topology

	owner *swDev //ckpt:skip device wiring, re-established by construction

	queues      [packet.NumPriorities][]queued
	heads       [packet.NumPriorities]int
	nQueued     int //ckpt:skip derived: the packet count of queues, which are captured
	queuedBytes int64
	maxQueued   int64 // high-water mark of queuedBytes
	txBytes     int64 // cumulative bytes transmitted (INT)
	paused      bool

	// Transmitter completion is lazy (DESIGN.md §8.1). Starting a
	// transmission queues no event: it reserves the key (busyUntil,
	// busySeq) an eager completion event would have run at, and the port
	// counts as serializing until the engine has passed that key. The
	// completion is materialised at exactly that key (wakeArmed) only once
	// there is a packet for it to send. busy says a key has been reserved
	// and not run as an event; only serializing() says whether it is still
	// ahead.
	busy      bool
	busyUntil sim.Time
	busySeq   uint64
	wakeArmed bool

	// Injected fault state (see Fabric's fault-control methods). down
	// halts the transmitter like a PFC pause but is independent of it;
	// lossRate is a persistent degraded-link drop probability; burstRate
	// applies instead while the clock is before burstUntil.
	down       bool
	lossRate   float64
	burstRate  float64
	burstUntil sim.Time

	// The far end of the link, so the delivery event goes straight to the
	// receiving device: a host (peerHost), or port peerIn of a switch
	// (peerSw).
	peerHost *Host  //ckpt:skip peer wiring, re-established by construction
	peerSw   *swDev //ckpt:skip peer wiring, re-established by construction
	peerIn   int    //ckpt:skip peer wiring, re-established by construction

	// Lanes for the two packet sizes that make up nearly all traffic: the
	// delivery of a full MTU or a bare header fires a delay fixed by the
	// link, so it needs no priority queue (sim.Lane). Any other size is
	// scheduled by the engine, and so is every cross-shard delivery: a port
	// whose peer sits on another shard has no lanes.
	laneMTU *sim.Lane //ckpt:skip lane wiring, re-established by construction
	laneHdr *sim.Lane //ckpt:skip lane wiring, re-established by construction

	// Boundary egress (switch↔switch links marked topo.Port.Boundary):
	// delivery is fused into a single arrival-band event — the forward at
	// the peer switch, scheduled tx+delay+SwitchDelay ahead with a key
	// built from the directed link id and a per-link sequence, so its
	// execution order is identical at every shard count. Data and PFC
	// frames on the same directed link share arrSeq.
	boundary bool   //ckpt:skip static topology attribute (topo.Port.Boundary)
	linkID   uint64 //ckpt:skip derived from the directed link identity at construction
	arrSeq   uint64
}

// wireLanes resolves the port's lanes on its shard: serialization plus
// propagation of each fixed size, plus extra (the peer's SwitchDelay on a
// fused boundary link).
func (o *outPort) wireLanes(extra sim.Duration) {
	o.laneMTU = o.sh.lane(sim.TransmissionTime(packet.MTU, o.rate) + o.delay + extra)
	o.laneHdr = o.sh.lane(sim.TransmissionTime(packet.HeaderSize, o.rate) + o.delay + extra)
}

// faultDrop applies injected link faults (degrade / loss burst) at enqueue
// time and reports whether the packet was consumed. Faulty links draw from
// the owning device's seeded stream, so runs stay deterministic at any
// shard count; clean links draw nothing.
func (o *outPort) faultDrop(p *packet.Packet) bool {
	r := o.lossRate
	if o.burstRate > r && o.sh.eng.Now() < o.burstUntil {
		r = o.burstRate
	}
	if r <= 0 || o.rng.Float64() >= r {
		return false
	}
	o.sh.counters.FaultDrops++
	o.fab.dropped(p)
	return true
}

// enqueue is the host-NIC entry point: plain drop-tail, no dataplane
// features (a host never trims or marks its own packets).
func (o *outPort) enqueue(p *packet.Packet) {
	if o.faultDrop(p) {
		return
	}
	if o.queuedBytes+int64(p.Size) > o.capacity {
		o.sh.counters.HostDrops++
		o.fab.dropped(p)
		return
	}
	o.push(p, -1)
}

// enqueueAt is the switch entry point, applying Aeolus selective dropping,
// NDP trimming, ECN marking, and drop-tail in that order, then PFC
// accounting for the ingress the packet came through.
func (o *outPort) enqueueAt(p *packet.Packet, sw *swDev, in int) {
	cfg := &o.fab.cfg
	if o.faultDrop(p) {
		return
	}
	if cfg.RandomLossRate > 0 && o.rng.Float64() < cfg.RandomLossRate {
		if p.Kind == packet.Data {
			o.sh.counters.DataDrops++
		} else {
			o.sh.counters.CtrlDrops++
		}
		o.fab.dropped(p)
		return
	}
	isData := p.Kind == packet.Data && !p.Trimmed

	if isData && p.Unsched && cfg.AeolusThresholdBytes > 0 &&
		o.queuedBytes >= cfg.AeolusThresholdBytes {
		o.sh.counters.AeolusDrops++
		o.fab.dropped(p)
		return
	}
	// Trimming applies to regular data only: NDP carries retransmissions
	// in a protected high-priority queue (modeled as PrioShort) precisely
	// so they are not trimmed twice.
	if isData && p.Priority >= packet.PrioDataHigh &&
		cfg.TrimThresholdBytes > 0 && o.queuedBytes >= cfg.TrimThresholdBytes {
		p.Trimmed = true
		p.Size = packet.HeaderSize
		p.Priority = packet.PrioControl
		o.sh.counters.Trims++
		for _, ob := range o.fab.obs {
			ob.PacketTrimmed(p)
		}
		isData = false
	}
	if o.queuedBytes+int64(p.Size) > o.capacity {
		if p.Kind == packet.Data {
			o.sh.counters.DataDrops++
		} else {
			o.sh.counters.CtrlDrops++
		}
		o.fab.dropped(p)
		return
	}
	if isData && cfg.ECNThresholdBytes > 0 && o.queuedBytes >= cfg.ECNThresholdBytes {
		p.ECN = true
		o.sh.counters.ECNMarks++
	}
	o.push(p, in)
	if cfg.EnablePFC && in >= 0 {
		sw.ingressBytes[in] += int64(p.Size)
		sw.checkPause(in)
	}
}

// push appends to the packet's priority queue and kicks the transmitter.
func (o *outPort) push(p *packet.Packet, in int) {
	pr := p.Priority
	if int(pr) >= packet.NumPriorities {
		pr = packet.NumPriorities - 1
	}
	o.queues[pr] = append(o.queues[pr], queued{p, in})
	o.nQueued++
	o.queuedBytes += int64(p.Size)
	if o.queuedBytes > o.maxQueued {
		o.maxQueued = o.queuedBytes
	}
	o.tryTransmit()
}

// pop removes the highest-priority head-of-line packet.
func (o *outPort) pop() (queued, bool) {
	for pr := 0; pr < packet.NumPriorities; pr++ {
		q := o.queues[pr]
		h := o.heads[pr]
		if h >= len(q) {
			continue
		}
		el := q[h]
		q[h] = queued{}
		h++
		switch {
		case h == len(q):
			// Empty: reset to reuse the backing array.
			o.queues[pr] = q[:0]
			h = 0
		case h > 64 && h*2 > len(q):
			// Compact once the dead prefix dominates, amortized O(1).
			n := copy(q, q[h:])
			o.queues[pr] = q[:n]
			h = 0
		}
		o.heads[pr] = h
		o.nQueued--
		o.queuedBytes -= int64(el.p.Size)
		return el, true
	}
	return queued{}, false
}

// tryTransmit starts serializing the next packet if the port is idle, not
// PFC-paused, and the link is not administratively down. A port still
// serializing with packets waiting gets its completion event instead.
func (o *outPort) tryTransmit() {
	if o.paused || o.down {
		return
	}
	if o.serializing() {
		o.armWake()
		return
	}
	el, ok := o.pop()
	if !ok {
		return
	}
	o.busy = true
	p := el.p

	// Release PFC accounting as soon as the packet leaves the buffer.
	if o.owner != nil && o.fab.cfg.EnablePFC && el.in >= 0 {
		o.owner.ingressBytes[el.in] -= int64(p.Size)
		o.owner.checkResume(el.in)
	}

	tx := sim.TransmissionTime(p.Size, o.rate)
	o.txBytes += int64(p.Size)
	if p.CollectINT {
		p.INT = append(p.INT, packet.INTHop{
			QueueBytes: o.queuedBytes,
			TxBytes:    o.txBytes,
			Timestamp:  o.sh.eng.Now(),
			RateBps:    o.rate,
		})
	}
	// The completion's place in the execution order is fixed here, where
	// the eager event was scheduled, whether or not it is ever queued.
	eng := o.sh.eng
	o.busyUntil, o.busySeq = eng.Now().Add(tx), eng.ReserveSeq()
	o.armWake()
	var lane *sim.Lane
	switch p.Size {
	case packet.MTU:
		lane = o.laneMTU
	case packet.HeaderSize:
		lane = o.laneHdr
	}
	switch {
	case o.boundary:
		// Fused boundary delivery: schedule the forward at the peer switch
		// directly, keyed in the arrival band so execution order does not
		// depend on which shard inserted it, or when.
		key := bandKey(o.linkID, o.arrSeq)
		o.arrSeq++
		if lane != nil {
			lane.Arrive(key, swForward, o.peerSw, p, o.peerIn)
			break
		}
		at := eng.Now().Add(tx + o.delay + o.fab.topo.SwitchDelay)
		if peer := o.peerSw.sh; peer == o.sh {
			eng.ScheduleArrival(at, key, swForward, o.peerSw, p, o.peerIn)
		} else {
			o.sh.stage(peer, at, key, swForward, o.peerSw, p, o.peerIn)
		}
	case o.peerHost != nil:
		if lane != nil {
			lane.After(arriveAtHost, o.peerHost, p, 0)
		} else {
			eng.AfterFunc(tx+o.delay, arriveAtHost, o.peerHost, p, 0)
		}
	default:
		if lane != nil {
			lane.After(arriveAtSwitch, o.peerSw, p, o.peerIn)
		} else {
			eng.AfterFunc(tx+o.delay, arriveAtSwitch, o.peerSw, p, o.peerIn)
		}
	}
}

// serializing reports whether a transmission is in progress: one was
// started and the engine has not yet passed its completion key.
func (o *outPort) serializing() bool {
	return o.busy && !o.sh.eng.Passed(o.busyUntil, o.busySeq)
}

// armWake queues the completion event of the transmission in progress if
// a packet is waiting for it and it is not queued already.
func (o *outPort) armWake() {
	if o.wakeArmed || o.nQueued == 0 {
		return
	}
	o.wakeArmed = true
	o.sh.eng.ScheduleReserved(o.busyUntil, o.busySeq, portTxDone, o, nil, 0)
}

func portTxDone(a, _ any, _ int) {
	o := a.(*outPort)
	o.busy, o.wakeArmed = false, false
	o.tryTransmit()
}

// checkPause sends a PFC pause upstream when an ingress's buffered bytes
// cross the pause watermark.
func (d *swDev) checkPause(in int) {
	if d.paused == nil {
		d.paused = make([]bool, len(d.ports))
	}
	if d.paused[in] || d.ingressBytes[in] < d.fab.cfg.PFCPause {
		return
	}
	d.paused[in] = true
	d.sh.counters.PFCPauses++
	d.signalUpstream(in, true)
}

// checkResume lifts the pause once the ingress drains below the resume
// watermark.
func (d *swDev) checkResume(in int) {
	if d.paused == nil || !d.paused[in] || d.ingressBytes[in] > d.fab.cfg.PFCResume {
		return
	}
	d.paused[in] = false
	d.sh.counters.PFCResumes++
	d.signalUpstream(in, false)
}

// signalUpstream delivers a pause/resume to the transmitter feeding
// ingress port in. PFC frames are modeled as link-level control that
// arrives after the propagation delay without queueing. On boundary
// links the frame travels the same directed link as this switch's data
// toward the upstream (our output port in), so it borrows that port's
// arrival-band sequence; on intra-shard links plain scheduling suffices.
func (d *swDev) signalUpstream(in int, pause bool) {
	spec := d.spec.Ports[in]
	i := 0
	if pause {
		i = 1
	}
	if spec.ToHost {
		// Hosts always share their ToR's shard.
		d.sh.eng.AfterFunc(spec.Delay, pfcApply, d.fab.hosts[spec.Peer].nic, nil, i)
		return
	}
	up := d.fab.switches[spec.Peer].ports[spec.PeerPort]
	if !spec.Boundary {
		d.sh.eng.AfterFunc(spec.Delay, pfcApply, up, nil, i)
		return
	}
	rev := d.ports[in] // our transmitter on the same directed link d→peer
	at := d.sh.eng.Now().Add(spec.Delay)
	key := bandKey(rev.linkID, rev.arrSeq)
	rev.arrSeq++
	if peer := up.sh; peer == d.sh {
		d.sh.eng.ScheduleArrival(at, key, pfcApply, up, nil, i)
	} else {
		d.sh.stage(peer, at, key, pfcApply, up, nil, i)
	}
}

// pfcApply lands a PFC frame at the upstream transmitter: i==1 pauses,
// i==0 resumes and kicks the transmitter.
func pfcApply(a, _ any, i int) {
	up := a.(*outPort)
	up.paused = i == 1
	if i == 0 {
		up.tryTransmit()
	}
}

// dropped fans the drop out to the observers, then recycles the
// packet — the fabric's second release point (the first is delivery).
func (f *Fabric) dropped(p *packet.Packet) {
	for _, o := range f.obs {
		o.PacketDropped(p)
	}
	packet.Release(p)
}
