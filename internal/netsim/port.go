package netsim

import (
	"math/bits"
	"math/rand"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
)

// outPort models one transmit side of a full-duplex link: eight
// strict-priority FIFO queues sharing a byte budget, a serializing
// transmitter, and the attached link's class (rate, propagation delay,
// budget, lanes). A port belongs either to a switch (owner set) or to a
// host NIC.
//
// Ports live in one slab per fabric (Fabric.ports) and the field order is
// the memory layout (DESIGN.md §8.4): everything a packet hop touches —
// enqueueAt → push → tryTransmit → armWake — comes first, the class
// lists follow, and the boundary link's identity closes it. What only a
// faulty link reads lives in its shard's side table (shardState.faults).
// TestPortLayout guards the split; a new field shared by every port of a
// kind of link goes in portClass, and any other new field needs a
// measurement that every hop pays for it.
type outPort struct {
	sh          *shardState
	class       *portClass // static link parameters and lane wiring
	queuedBytes int64
	maxQueued   int64 // high-water mark of queuedBytes
	txBytes     int64 // cumulative bytes transmitted (INT)

	// Transmitter completion is lazy (DESIGN.md §8.1). Starting a
	// transmission queues no event: it reserves the key (busyUntil,
	// busySeq) an eager completion event would have run at, and the port
	// counts as serializing until the engine has passed that key. The
	// completion is materialised at exactly that key (wakeArmed) only once
	// there is a packet for it to send. busy says a key has been reserved
	// and not run as an event; only serializing() says whether it is still
	// ahead.
	busyUntil sim.Time
	busySeq   uint64
	nQueued   int32 // packets across the class lists
	peerIn    int32
	nonEmpty  uint8 // bit pr is set while class pr's list holds a packet
	paused    bool
	busy      bool
	wakeArmed bool
	// down halts the transmitter like a PFC pause but is independent of it
	// (see Fabric's fault-control methods).
	down bool
	// hop says what the far end does with a packet, and so which event a
	// transmission schedules (hopKind).
	hop hopKind
	// faulty says the port has an entry in its shard's fault table, so a
	// clean link never looks there.
	faulty bool // the port has a shardState.faults entry

	// The far end of the link, so the delivery event goes straight to the
	// receiving device: a host (peerHost), or port peerIn of a switch
	// (peerSw).
	peerHost *Host
	peerSw   *swDev
	owner    *swDev

	// q[pr] is the tail of class pr: a circular list through
	// packet.Packet.QNext, so the head is q[pr].QNext; nil while the class
	// is empty. Walk it with first and next.
	q [packet.NumPriorities]*packet.Packet

	// The boundary link's identity and sequence. Data and PFC frames on
	// the same directed link share arrSeq.
	linkID uint64 // derived from the directed link identity
	arrSeq uint64
}

// hopKind is what a port's transmission schedules at the far end of its
// link. A hop into a switch is one event — the forward, tx+delay+SwitchDelay
// ahead — except on a fabric where fusing could move an event
// (fuseHops, DESIGN.md §8.1.2), whose intra-shard hops keep the arrival
// and the forward a SwitchDelay later.
type hopKind uint8

const (
	// hopHost: the arrival at a host, which delivers a HostDelay later.
	hopHost hopKind = iota
	// hopPair: the arrival at a switch, which forwards a SwitchDelay later.
	hopPair
	// hopFused: the forward at the peer switch, under the band-0 seq
	// reserved as the transmission starts.
	hopFused
	// hopBoundary: the forward at the peer switch across a link marked
	// topo.Port.Boundary, under an arrival-band key built from the
	// directed link id and a per-link sequence, so its execution order is
	// identical at every shard count.
	hopBoundary
)

// portClass is what every port of a shard driving the same kind of link
// shares: the link's rate and propagation delay, the port's byte budget,
// and the lanes for the two packet sizes that make up nearly all traffic.
// The delivery of a full MTU or a bare header fires a delay fixed by the
// link, so it needs no priority queue (sim.Lane). Any other size is
// scheduled by the engine, and so is every cross-shard delivery: a class
// for ports whose peer sits on another shard has no lanes. A shard's
// classes are found by their whole value (shardState.portClass), so two
// ports share one exactly when they agree on everything in it.
type portClass struct {
	rate             float64
	delay            sim.Duration
	capacity         int64
	laneMTU, laneHdr *sim.Lane
}

// linkFault is a faulty port's entry in its shard's fault table: a
// persistent degraded-link drop probability (lossRate), and burstRate,
// which applies instead while the clock is before burstUntil.
type linkFault struct {
	lossRate   float64
	burstRate  float64
	burstUntil sim.Time
}

// setLoss installs the port's injected loss parameters in its shard's
// fault table — or takes it out when all three are zero — and the flag
// that says whether there is an entry to look up.
func (o *outPort) setLoss(lf linkFault) {
	if o.faulty = lf != (linkFault{}); !o.faulty {
		delete(o.sh.faults, o)
		return
	}
	if o.sh.faults == nil {
		o.sh.faults = make(map[*outPort]linkFault)
	}
	o.sh.faults[o] = lf
}

// faultDrop applies injected link faults (degrade / loss burst) at enqueue
// time and reports whether the packet was consumed. Faulty links draw from
// rng, the owning device's seeded stream, so runs stay deterministic at
// any shard count; clean links draw nothing.
func (o *outPort) faultDrop(p *packet.Packet, rng *rand.Rand) bool {
	lf := o.sh.faults[o]
	r := lf.lossRate
	if lf.burstRate > r && o.sh.eng.Now() < lf.burstUntil {
		r = lf.burstRate
	}
	if r <= 0 || rng.Float64() >= r {
		return false
	}
	o.sh.counters.FaultDrops++
	o.sh.fab.dropped(p)
	return true
}

// enqueue is the host-NIC entry point: plain drop-tail, no dataplane
// features (a host never trims or marks its own packets). rng is the
// host's stream.
func (o *outPort) enqueue(p *packet.Packet, rng *rand.Rand) {
	if o.faulty && o.faultDrop(p, rng) {
		return
	}
	if o.queuedBytes+int64(p.Size) > o.class.capacity {
		o.sh.counters.HostDrops++
		o.sh.fab.dropped(p)
		return
	}
	o.push(p, -1)
}

// enqueueAt is the entry point for sw, the switch that owns the port,
// applying Aeolus selective dropping, NDP trimming, ECN marking, and
// drop-tail in that order, then PFC accounting for the ingress the packet
// came through. Injected loss draws from sw's stream.
func (o *outPort) enqueueAt(p *packet.Packet, sw *swDev, in int) {
	fab := o.sh.fab
	cfg := &fab.cfg
	if o.faulty && o.faultDrop(p, &sw.rng) {
		return
	}
	isData := p.Kind == packet.Data && !p.Trimmed

	if isData && p.Unsched && cfg.AeolusThresholdBytes > 0 &&
		o.queuedBytes >= cfg.AeolusThresholdBytes {
		o.sh.counters.AeolusDrops++
		fab.dropped(p)
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
		for _, ob := range fab.obs {
			ob.PacketTrimmed(p)
		}
		isData = false
	}
	if o.queuedBytes+int64(p.Size) > o.class.capacity {
		if p.Kind == packet.Data {
			o.sh.counters.DataDrops++
		} else {
			o.sh.counters.CtrlDrops++
		}
		fab.dropped(p)
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

// push links the packet behind its priority class's tail, recording the
// ingress it came through (for PFC accounting; -1 when not applicable),
// and kicks the transmitter.
func (o *outPort) push(p *packet.Packet, in int) {
	pr := p.Priority
	if pr >= packet.NumPriorities {
		pr = packet.NumPriorities - 1
	}
	p.QIn = int32(in)
	if bit := uint8(1) << pr; o.nonEmpty&bit == 0 {
		o.nonEmpty |= bit
		p.QNext = p
	} else {
		tail := o.q[pr]
		p.QNext, tail.QNext = tail.QNext, p
	}
	o.q[pr] = p
	o.nQueued++
	o.queuedBytes += int64(p.Size)
	if o.queuedBytes > o.maxQueued {
		o.maxQueued = o.queuedBytes
	}
	o.tryTransmit()
}

// pop unlinks the highest-priority head-of-line packet and returns it with
// its ingress, or nil when the port is empty. The packet leaves with its
// queue linkage zeroed: those fields are the fabric's only while it is
// buffered.
func (o *outPort) pop() (*packet.Packet, int) {
	if o.nonEmpty == 0 {
		return nil, 0
	}
	pr := bits.TrailingZeros8(o.nonEmpty)
	tail := o.q[pr]
	p := tail.QNext
	if p == tail {
		o.q[pr] = nil
		o.nonEmpty &^= 1 << pr
	} else {
		tail.QNext = p.QNext
	}
	in := int(p.QIn)
	p.QNext, p.QIn = nil, 0
	o.nQueued--
	o.queuedBytes -= int64(p.Size)
	return p, in
}

// first returns the head of class pr, nil when it is empty. With next it
// is the one way to walk a class in FIFO order without unlinking:
//
//	for p := o.first(pr); p != nil; p = o.next(pr, p)
//
// A packet recycled while buffered has a zero link, which ends the walk
// early (the auditor counts on that).
func (o *outPort) first(pr int) *packet.Packet {
	if o.q[pr] == nil {
		return nil
	}
	return o.q[pr].QNext
}

// next returns the packet behind p in class pr, nil after the tail.
func (o *outPort) next(pr int, p *packet.Packet) *packet.Packet {
	if p == o.q[pr] {
		return nil
	}
	return p.QNext
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
	p, in := o.pop()
	if p == nil {
		return
	}
	o.busy = true

	// Release PFC accounting as soon as the packet leaves the buffer (only
	// switch ports record an ingress).
	if in >= 0 && o.sh.fab.cfg.EnablePFC {
		o.owner.ingressBytes[in] -= int64(p.Size)
		o.owner.checkResume(in)
	}

	c := o.class
	tx := sim.TransmissionTime(p.Size, c.rate)
	o.txBytes += int64(p.Size)
	if p.CollectINT {
		//lint:ignore hotalloc packet.Release keeps the INT backing array, so a recycled packet appends into capacity it already grew
		p.INT = append(p.INT, packet.INTHop{
			QueueBytes: o.queuedBytes,
			TxBytes:    o.txBytes,
			Timestamp:  o.sh.eng.Now(),
			RateBps:    c.rate,
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
		lane = c.laneMTU
	case packet.HeaderSize:
		lane = c.laneHdr
	}
	switch o.hop {
	case hopBoundary:
		// Schedule the forward at the peer switch directly, keyed in the
		// arrival band so execution order does not depend on which shard
		// inserted it, or when.
		key := bandKey(o.linkID, o.arrSeq)
		o.arrSeq++
		if lane != nil {
			lane.Arrive(key, swForward, o.peerSw, p, int(o.peerIn))
			break
		}
		at := eng.Now().Add(tx + c.delay + o.sh.fab.topo.SwitchDelay)
		if peer := o.peerSw.sh; peer == o.sh {
			eng.ScheduleArrival(at, key, swForward, o.peerSw, p, int(o.peerIn))
		} else {
			o.sh.stage(peer, at, key, swForward, o.peerSw, p, int(o.peerIn))
		}
	case hopFused:
		// The forward at the peer switch, under the seq its arrival would
		// have taken: the order it runs in is the two-event chain's
		// (DESIGN.md §8.1.2).
		if lane != nil {
			lane.After(swForward, o.peerSw, p, int(o.peerIn))
		} else {
			eng.AfterFunc(tx+c.delay+o.sh.fab.topo.SwitchDelay, swForward, o.peerSw, p, int(o.peerIn))
		}
	case hopHost:
		if lane != nil {
			lane.After(arriveAtHost, o.peerHost, p, 0)
		} else {
			eng.AfterFunc(tx+c.delay, arriveAtHost, o.peerHost, p, 0)
		}
	default: // hopPair
		if lane != nil {
			lane.After(arriveAtSwitch, o.peerSw, p, int(o.peerIn))
		} else {
			eng.AfterFunc(tx+c.delay, arriveAtSwitch, o.peerSw, p, int(o.peerIn))
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

//lint:hotpath one completion per back-to-back packet; 0-alloc contract of BenchmarkFabricForwarding
func portTxDone(a, _ any, _ int) {
	o := a.(*outPort)
	o.busy, o.wakeArmed = false, false
	o.tryTransmit()
}

// checkPause sends a PFC pause upstream when an ingress's buffered bytes
// cross the pause watermark. The first call on a switch opens its window
// of the fabric's pause-flag slab: until then len(paused) is 0.
func (d *swDev) checkPause(in int) {
	d.paused = d.paused[:cap(d.paused)]
	if d.paused[in] || d.ingressBytes[in] < d.sh.fab.cfg.PFCPause {
		return
	}
	d.paused[in] = true
	d.sh.counters.PFCPauses++
	d.signalUpstream(in, true)
}

// checkResume lifts the pause once the ingress drains below the resume
// watermark.
func (d *swDev) checkResume(in int) {
	if len(d.paused) == 0 || !d.paused[in] || d.ingressBytes[in] > d.sh.fab.cfg.PFCResume {
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
	fab := d.sh.fab
	i := 0
	if pause {
		i = 1
	}
	if spec.ToHost {
		// Hosts always share their ToR's shard.
		d.sh.eng.AfterFunc(spec.Delay, pfcApply, fab.hosts[spec.Peer].nic, nil, i)
		return
	}
	up := &fab.switches[spec.Peer].ports[spec.PeerPort]
	if !spec.Boundary {
		d.sh.eng.AfterFunc(spec.Delay, pfcApply, up, nil, i)
		return
	}
	rev := &d.ports[in] // our transmitter on the same directed link d→peer
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
