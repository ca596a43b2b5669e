package core

import (
	"sort"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/workload"
)

// sender is the transmit half of a dcPIM host: it answers RTS with grants
// during matching, holds and spends tokens during data phases, transmits
// short flows immediately, and runs the notification/finish reliability
// timers.
type sender struct {
	p *Proto

	flows     map[uint64]*sendFlow // nil until the host's first flow
	freeFlows []*sendFlow          // recycled records

	// Token queue (FIFO as issued by receivers, which already order their
	// token streams by SRPT).
	tokens fifo[*packet.Packet]
	pacing bool

	// Matching state for epoch matchEpoch (the data phase being built).
	// rounds has length 0 until the first epoch opens and r from then on,
	// over fixed storage (a window of Attach's slab) that every epoch
	// clears in place. rtsBuf has a slot per round in step with it, but is
	// nil until the host's first request: a sender nobody asks holds none.
	matchEpoch int64
	committed  int32        // channels accepted so far (int32: the pair fits the word the token queue's head took)
	reserved   int32        // channels granted but not yet resolved
	rounds     []roundState // per-round grant bookkeeping
	rtsBuf     [][]*packet.Packet

	dataEpoch int64
}

type roundState struct {
	granted  int
	accepted int
	released bool
}

// sendFlow is the sender-side state of one flow.
type sendFlow struct {
	id      uint64
	dst     int
	size    int64
	arrival sim.Time
	npkts   int
	short   bool

	sent    bitset // 1 bit per packet (slab.go)
	sentCnt int

	notifAcked bool
	notifTimer sim.Timer
	finTimer   sim.Timer
	burstTimer sim.Timer // short-flow burst-serialized finish probe
	finSent    bool
	done       bool
}

// remainingBytes approximates untransmitted payload (the SRPT key carried
// in grants).
func (f *sendFlow) remainingBytes() int64 {
	return int64(f.npkts-f.sentCnt) * packet.PayloadSize
}

// init binds the sender to its host. It allocates nothing: Attach has
// already carved the per-round bookkeeping, the flow map waits for the
// first flow and the request buffers for the first request.
func (s *sender) init(p *Proto) {
	s.p = p
}

// wake makes the request buffers, one per round, on the host's first
// request.
//
//lint:coldpath runs once per host that is ever asked for a grant
func (s *sender) wake() {
	s.rtsBuf = make([][]*packet.Packet, s.p.sh.cfg.Rounds)
}

// flowArrival starts a new outgoing flow: notify the receiver and, for
// short flows, blast the payload immediately at the short-flow priority.
func (s *sender) flowArrival(fl workload.Flow) {
	f := s.newSendFlow()
	f.id, f.dst, f.size, f.arrival = fl.ID, fl.Dst, fl.Size, fl.Arrival
	f.npkts = packet.PacketsForBytes(fl.Size)
	f.short = fl.Size <= s.p.sh.bdp
	f.sent = f.sent.grow(f.npkts)
	if s.flows == nil {
		s.flows = make(map[uint64]*sendFlow)
	}
	s.flows[f.id] = f

	s.sendNotification(f)

	if f.short {
		for seq := 0; seq < f.npkts; seq++ {
			s.transmitData(f, seq, packet.PrioShort)
		}
		// First finish once the burst has serialized out of the NIC. Held
		// in burstTimer so recycling can cancel it: were it left live, a
		// late fire would probe whatever flow reuses the record.
		txAll := sim.TransmissionTime(int(f.size)+f.npkts*packet.HeaderSize,
			s.p.host.LineRate())
		f.burstTimer = s.p.eng.AfterFunc(txAll+s.p.sh.mtuTime, maybeFinishFunc, s, f, 0)
	}
}

func (s *sender) sendNotification(f *sendFlow) {
	if f.notifAcked || f.done {
		return
	}
	n := packet.NewControl(packet.Notification, s.p.id, f.dst, f.id)
	n.FlowSize = f.size
	s.p.send(n)
	// Retransmit until acknowledged (§3.5). The period leaves slack above
	// one cRTT so an in-flight ack from the farthest host wins the race.
	f.notifTimer = s.p.eng.AfterFunc(s.p.sh.ctrlRTT*2, sendNotificationFunc, s, f, 0)
}

// sendNotificationFunc and maybeFinishFunc are the per-flow timers'
// argument-form trampolines: the event carries the sender and the flow,
// so arming a timer allocates no closure.
func sendNotificationFunc(a, b any, _ int) { a.(*sender).sendNotification(b.(*sendFlow)) }

func maybeFinishFunc(a, b any, _ int) { a.(*sender).maybeFinish(b.(*sendFlow)) }

func (s *sender) onNotificationAck(pkt *packet.Packet) {
	f := s.flows[pkt.Flow]
	if f == nil {
		return
	}
	f.notifAcked = true
	f.notifTimer.Cancel()
}

// transmitData sends packet seq of f at the given priority.
func (s *sender) transmitData(f *sendFlow, seq int, prio uint8) {
	d := packet.NewData(s.p.id, f.dst, f.id, seq,
		packet.DataPacketSize(f.size, seq), prio)
	d.FlowSize = f.size
	if f.short {
		d.Unsched = true // eligible for Aeolus-style selective drop
	}
	// The short-flow blast is the unscheduled bypass; token-admitted data
	// (including short-flow recovery, re-admitted at data priorities) is
	// scheduled.
	if prio == packet.PrioShort {
		s.p.sh.ins.unschedBytes.Add(int64(d.Size))
	} else {
		s.p.sh.ins.schedBytes.Add(int64(d.Size))
	}
	if !f.sent.get(seq) {
		f.sent.set(seq)
		f.sentCnt++
	}
	s.p.send(d)
}

// maybeFinish emits FinishSender once every packet has been transmitted at
// least once and no tokens for the flow are pending, then keeps
// retransmitting it every control RTT until the receiver confirms (§3.5).
func (s *sender) maybeFinish(f *sendFlow) {
	if f.done || f.sentCnt < f.npkts {
		return
	}
	for _, t := range s.tokens.live() {
		if t.Flow == f.id {
			return // still owe admitted data
		}
	}
	fin := packet.NewControl(packet.FinishSender, s.p.id, f.dst, f.id)
	fin.Count = f.npkts
	fin.FlowSize = f.size
	s.p.send(fin)
	f.finSent = true
	f.finTimer = s.p.eng.AfterFunc(s.p.sh.ctrlRTT*2, maybeFinishFunc, s, f, 0)
}

func (s *sender) onFinishReceiver(pkt *packet.Packet) {
	f := s.flows[pkt.Flow]
	if f == nil {
		return
	}
	f.done = true
	delete(s.flows, f.id)
	// Tokens still queued for the flow resolve through s.flows (nil →
	// discarded by popValidToken), never through the record, so it can
	// recycle immediately; recycleSendFlow cancels the timers.
	s.recycleSendFlow(f)
}

// onToken queues an admission token and kicks the pacer. The token
// packet outlives OnPacket (it sits in the queue until spent), so the
// sender takes ownership and releases it in pace/popValidToken.
func (s *sender) onToken(tok *packet.Packet) {
	f := s.flows[tok.Flow]
	if f == nil || f.done {
		return
	}
	// New admissions supersede the finish cycle (retransmissions).
	f.finTimer.Cancel()
	tok.Keep()
	s.tokens.push(tok)
	s.kickPacer()
}

func (s *sender) kickPacer() {
	if s.pacing {
		return
	}
	s.pacing = true
	// Deferred one event: pacing immediately could spend — and release — a
	// token inside its own OnPacket delivery, which the packet ownership
	// contract forbids (the fabric still touches the packet after OnPacket
	// returns).
	s.p.clk.now.After(paceFunc, s, nil, 0)
}

// paceFunc is the pacer's argument-form trampoline (no method value per
// tick). Both of the pacer's delays are fixed, so it rides lanes.
func paceFunc(a, _ any, _ int) { a.(*sender).pace() }

// pace runs every MTU transmission time while tokens are queued: it sends
// one token's data packet per tick, yielding to short-flow bursts already
// occupying the NIC (§3.2 sender-side logic).
func (s *sender) pace() {
	if s.tokens.len() == 0 {
		s.pacing = false
		return
	}
	// Let short flows and control drain first; retry one MTU later.
	if s.p.host.NICQueuedBytes() >= 2*packet.MTU {
		s.p.clk.pace.After(paceFunc, s, nil, 0)
		return
	}
	tok := s.popValidToken()
	if tok == nil {
		s.pacing = false
		return
	}
	f := s.flows[tok.Flow]
	prio := uint8(tok.Count)
	if prio < packet.PrioDataHigh || prio > packet.PrioDataLow {
		prio = packet.PrioDataHigh
	}
	seq := tok.Seq
	packet.Release(tok) // spent
	s.transmitData(f, seq, prio)
	if f.sentCnt == f.npkts {
		s.maybeFinish(f)
	}
	s.p.clk.pace.After(paceFunc, s, nil, 0)
}

// popValidToken discards expired tokens (older than the previous epoch's
// grace window, §3.2) and returns the next usable one.
func (s *sender) popValidToken() *packet.Packet {
	now := s.p.eng.Now()
	graceEnd := sim.Time(int64(s.p.sh.epochLen) * s.dataEpoch).Add(s.p.sh.grace)
	for s.tokens.len() > 0 {
		tok := s.tokens.pop()
		switch {
		case tok.Epoch >= s.dataEpoch:
			// Current (or, with clock skew, upcoming) phase: usable.
		case tok.Epoch == s.dataEpoch-1 && now <= graceEnd:
			// Previous phase, still within the grace period.
		default:
			packet.Release(tok) // expired
			continue
		}
		if f := s.flows[tok.Flow]; f == nil || f.done {
			packet.Release(tok)
			continue
		}
		return tok
	}
	return nil
}

// ---- matching phase (sender side: grant) ----

func (s *sender) onEpochStart(e int64) {
	s.dataEpoch = e
	s.matchEpoch = e + 1
	s.committed = 0
	s.reserved = 0
	s.rounds = s.rounds[:cap(s.rounds)]
	clear(s.rounds)
	for j, buf := range s.rtsBuf {
		for _, r := range buf {
			packet.Release(r) // request never granted before its epoch ended
		}
		s.rtsBuf[j] = emptied(buf)
	}
	// Tokens from before the previous epoch can never become valid again;
	// drop them eagerly so the queue stays short.
	live, n := s.tokens.live(), 0
	for _, t := range live {
		if t.Epoch >= e-1 {
			live[n] = t
			n++
		} else {
			packet.Release(t)
		}
	}
	s.tokens.truncate(n)
	if n > 0 {
		s.kickPacer()
	}
}

// onRTS buffers a matching request for processing at the next grant tick.
// Stale requests (wrong epoch or a round whose grant stage has passed) are
// dropped — the multi-round design absorbs the loss (§3.3).
func (s *sender) onRTS(rts *packet.Packet) {
	if rts.Epoch != s.matchEpoch || rts.Round < 0 || rts.Round >= s.p.sh.cfg.Rounds {
		return
	}
	if s.rtsBuf == nil {
		s.wake()
	}
	rts.Keep() // buffered until the round's grant tick
	//lint:ignore hotalloc one append per RTS per matching round (epoch rate, not packet rate), bounded by the channel budget
	s.rtsBuf[rts.Round] = append(s.rtsBuf[rts.Round], rts)
}

// onAccept finalizes granted channels. Late accepts (after the grant
// budget was released) are still honored: the receiver considers itself
// matched and will clock tokens, which the sender always obeys (§3.5).
func (s *sender) onAccept(acc *packet.Packet) {
	if acc.Epoch != s.matchEpoch || acc.Round < 0 || acc.Round >= len(s.rounds) {
		return
	}
	s.committed += int32(acc.Channels)
	rs := &s.rounds[acc.Round]
	rs.accepted += acc.Channels
	if !rs.released {
		s.reserved -= int32(acc.Channels)
	}
}

// grantStage processes the RTS buffered for the given round: it first
// releases channel budget reserved by the previous round's unaccepted
// grants, then distributes free channels over the requests — by smallest
// remaining flow in the FCT-optimizing round, uniformly at random
// otherwise (§3.1, §3.5).
func (s *sender) grantStage(epoch int64, round int) {
	if epoch != s.matchEpoch {
		return
	}
	if round > 0 {
		rs := &s.rounds[round-1]
		if !rs.released {
			s.reserved -= int32(rs.granted - rs.accepted)
			rs.released = true
		}
	}
	// Drain this round's requests plus any stragglers from earlier rounds
	// (skewed clocks or queueing can land an RTS after its round's tick;
	// processing it in the next round is the "catch up in the remaining
	// rounds" behaviour the design relies on).
	var reqs []*packet.Packet
	for j := 0; j <= round && j < len(s.rtsBuf); j++ {
		reqs = append(reqs, s.rtsBuf[j]...)
		s.rtsBuf[j] = emptied(s.rtsBuf[j])
	}
	if len(reqs) == 0 {
		return
	}
	free := s.p.sh.cfg.Channels - int(s.committed) - int(s.reserved)
	if free <= 0 {
		for _, r := range reqs {
			packet.Release(r)
		}
		return
	}
	if round == 0 && s.p.sh.cfg.FCTRound {
		sort.SliceStable(reqs, func(i, j int) bool {
			return reqs[i].Remaining < reqs[j].Remaining
		})
	} else {
		rng := s.p.rng
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	}
	for _, r := range reqs {
		if free <= 0 {
			break
		}
		give := r.Channels
		if give > free {
			give = free
		}
		if give <= 0 {
			continue
		}
		g := packet.NewControl(packet.Grant, s.p.id, r.Src, 0)
		g.Channels = give
		g.Round = round
		g.Epoch = epoch
		g.Remaining = s.minRemainingTo(r.Src)
		s.p.send(g)
		free -= give
		s.reserved += int32(give)
		s.rounds[round].granted += give
	}
	for _, r := range reqs {
		packet.Release(r) // drained this round, granted or not
	}
}

// minRemainingTo returns the smallest remaining size among this sender's
// unfinished flows to dst (SRPT key for the receiver's accept choice).
func (s *sender) minRemainingTo(dst int) int64 {
	best := int64(1) << 62
	// A min fold: map order cannot affect it.
	for _, f := range s.flows {
		if f.dst != dst || f.done {
			continue
		}
		if r := f.remainingBytes(); r < best {
			best = r
		}
	}
	return best
}
