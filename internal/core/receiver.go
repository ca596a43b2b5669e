package core

import (
	"sort"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
)

// seq states within a receiver flow.
const (
	seqUntokened uint8 = iota // needs admission (or unsolicited arrival)
	seqTokened                // token sent, data not yet received
	seqReceived
)

// recvFlow is the receiver-side state of one flow.
type recvFlow struct {
	id      uint64
	src     int
	size    int64
	arrival sim.Time
	npkts   int
	short   bool

	state        twoBits        // 2 bits per packet: seqUntokened/Tokened/Received (slab.go)
	tokened      fifo[tokenRef] // issued tokens, oldest first (lazy cleanup)
	retx         fifo[int32]    // reverted seqs awaiting re-admission
	nextNew      int            // lowest never-tokened seq
	senderIdx    int            // position in the bySender index
	outstanding  int            // live tokens (sent, data not received)
	untokenedCnt int
	receivedCnt  int
	receivedByte int64

	recoverTimer sim.Timer // short-flow recovery probe (cancelled on recycle)
	eligible     bool      // participates in matching demand
	done         bool
}

// tokenRef packs one issued token to 8 bytes — these sit in per-flow
// FIFOs across every live flow, so width matters at 10^6–10^7 concurrent
// flows. seq is a packet index (flows are < 2^31 packets by far); epoch
// int32 holds ~10^9 matching epochs, i.e. years of simulated time at the
// paper's epoch length.
type tokenRef struct {
	seq   int32
	epoch int32
}

func (f *recvFlow) remaining() int64 { return f.size - f.receivedByte }

// demandBytes is the unadmitted payload used for channel asks.
func (f *recvFlow) demandBytes() int64 {
	b := int64(f.untokenedCnt) * packet.PayloadSize
	if r := f.remaining(); b > r {
		b = r
	}
	return b
}

// nextCandidate returns the lowest seq needing a token, or -1.
func (f *recvFlow) nextCandidate() int {
	for f.retx.len() > 0 {
		if s := int(f.retx.front()); f.state.get(s) == seqUntokened {
			return s
		}
		f.retx.pop()
	}
	for f.nextNew < f.npkts && f.state.get(f.nextNew) != seqUntokened {
		f.nextNew++
	}
	if f.nextNew < f.npkts {
		return f.nextNew
	}
	return -1
}

// tokenLoop clocks tokens to one matched sender during a data phase.
type tokenLoop struct {
	src      int
	channels int
	interval sim.Duration
	epoch    int64
	stalled  bool
	timer    sim.Timer
}

// receiver is the admit half of a dcPIM host: it initiates matching with
// RTS, accepts grants, clocks tokens to matched senders, and detects and
// recovers losses.
type receiver struct {
	p *Proto

	// Every map below is nil until the host's first flow or grant (wake):
	// most hosts of a large fabric never receive, and reading a nil map is
	// reading an empty one. From then on the per-epoch maps are cleared in
	// place, never remade.
	flows map[uint64]*recvFlow
	// bySender lists each sender's live flows (swap-deleted via
	// recvFlow.senderIdx on completion) — a slice instead of a nested map
	// so the token loop's per-fire scan walks a dense array. Every fold
	// over it is order-insensitive or id-tie-broken, so the slice's
	// mutation order cannot leak into the packet stream.
	bySender map[int][]*recvFlow // index over flows
	// doneFlows remembers completed flow ids forever: duplicates and
	// finish retransmissions must keep resolving as "done" after the flow
	// record itself has been recycled. One map entry per completed flow
	// is the irreducible long-run cost.
	doneFlows map[uint64]struct{}
	freeFlows []*recvFlow // recycled records

	// Matching state for epoch matchEpoch. grantBuf has a slot per round
	// (rounds) and, like the maps, is nil until wake.
	matchEpoch  int64
	used        int // channels accepted so far
	planned     map[int]int64
	grantBuf    [][]*packet.Packet
	matchedNext map[int]int

	// Current data phase.
	matchedNow   map[int]int
	loops        map[int]*tokenLoop
	matchedTotal int // channels in matchedNow (telemetry bookkeeping)
}

// init binds the receiver to its host. It allocates nothing.
func (r *receiver) init(p *Proto) { r.p = p }

// rounds is how many rounds of grants the matching under way buffers: r
// once the first matching has opened (requestStage sets matchEpoch ≥ 1),
// none before.
func (r *receiver) rounds() int {
	if r.matchEpoch == 0 {
		return 0
	}
	return r.p.sh.cfg.Rounds
}

// wake makes the receiver's maps and grant buffers, once, before the
// first write to any of them: on the host's first flow (ensure) or
// buffered grant (onGrant).
//
//lint:coldpath runs once per receiving host
func (r *receiver) wake() {
	if r.flows != nil {
		return
	}
	r.grantBuf = make([][]*packet.Packet, r.p.sh.cfg.Rounds)
	r.flows = make(map[uint64]*recvFlow)
	r.bySender = make(map[int][]*recvFlow)
	r.doneFlows = make(map[uint64]struct{})
	r.planned = make(map[int]int64)
	r.matchedNow = make(map[int]int)
	r.matchedNext = make(map[int]int)
	r.loops = make(map[int]*tokenLoop)
}

// emptied returns buf with length 0 and its slots cleared, keeping the
// backing array for the next round's appends.
func emptied(buf []*packet.Packet) []*packet.Packet {
	clear(buf)
	return buf[:0]
}

// ensure returns the live flow state for pkt, creating it lazily (data
// can arrive before its notification under spraying), or nil when the
// flow already completed — callers must treat nil as "done, ignore".
func (r *receiver) ensure(pkt *packet.Packet) *recvFlow {
	if f, ok := r.flows[pkt.Flow]; ok {
		return f
	}
	if _, done := r.doneFlows[pkt.Flow]; done {
		return nil
	}
	r.wake()
	n := packet.PacketsForBytes(pkt.FlowSize)
	f := r.newRecvFlow()
	f.id, f.src, f.size, f.arrival = pkt.Flow, pkt.Src, pkt.FlowSize, pkt.SentAt
	f.npkts, f.short = n, pkt.FlowSize <= r.p.sh.bdp
	f.state = f.state.grow(n)
	f.untokenedCnt = n
	r.flows[f.id] = f
	f.senderIdx = len(r.bySender[f.src])
	//lint:ignore hotalloc per-flow admission, not per-packet; swap-delete in complete keeps the per-sender slice's capacity for reuse
	r.bySender[f.src] = append(r.bySender[f.src], f)

	if f.short {
		// Short flows arrive unsolicited; if anything is missing after a
		// full data RTT, recover through the matching path (§3.2). Held in
		// recoverTimer so recycling can cancel it before the record is
		// reused.
		f.recoverTimer = r.p.eng.AfterFunc(r.p.sh.dataRTT, recoverFunc, r, f, 0)
	} else {
		f.eligible = true
		r.addPlanned(f.src, f.demandBytes())
		// A matched-but-idle token loop can pick the new flow up
		// mid-phase.
		r.resumeLoop(f.src)
	}
	return f
}

// recoverFunc is the short-flow recovery timer's argument-form
// trampoline.
func recoverFunc(a, b any, _ int) { a.(*receiver).recoverShort(b.(*recvFlow)) }

// recoverShort makes a short flow still incomplete one data RTT after
// its admission eligible for matching.
func (r *receiver) recoverShort(f *recvFlow) {
	if !f.done {
		f.eligible = true
		r.addPlanned(f.src, f.demandBytes())
		r.resumeLoop(f.src)
	}
}

// addPlanned adds late-arriving demand into the in-progress matching.
func (r *receiver) addPlanned(src int, bytes int64) {
	if bytes > 0 {
		r.planned[src] += bytes
	}
}

func (r *receiver) onNotification(n *packet.Packet) {
	r.ensure(n)
	ack := packet.NewControl(packet.NotificationAck, r.p.id, n.Src, n.Flow)
	r.p.send(ack)
}

func (r *receiver) onFinishSender(fin *packet.Packet) {
	if _, done := r.doneFlows[fin.Flow]; !done {
		return // incomplete or unknown: stay silent, recovery will finish the flow
	}
	out := packet.NewControl(packet.FinishReceiver, r.p.id, fin.Src, fin.Flow)
	r.p.send(out)
}

func (r *receiver) onData(d *packet.Packet) {
	f := r.ensure(d)
	if f == nil || d.Seq < 0 || d.Seq >= f.npkts || f.state.get(d.Seq) == seqReceived {
		return
	}
	if f.state.get(d.Seq) == seqTokened {
		f.outstanding--
		r.p.sh.ins.tokensOutstanding.Add(-1)
	} else {
		f.untokenedCnt--
	}
	f.state.set(d.Seq, seqReceived)
	f.receivedCnt++
	payload := int64(d.Size) - packet.HeaderSize
	if d.Trimmed {
		payload = 0 // a trimmed packet delivers no payload (defensive; dcPIM runs without trimming)
	}
	f.receivedByte += payload
	r.p.col.Delivered(r.p.eng.Now(), payload)

	if f.receivedByte >= f.size {
		r.complete(f)
		return
	}
	// Token clocking: once the window fills, each received data packet
	// releases the next token (§3.2).
	r.resumeLoop(d.Src)
}

//lint:coldpath runs once per flow completion, amortized across the flow's packets; FlowDone and UnloadedFCT costs live here, off the per-packet path
func (r *receiver) complete(f *recvFlow) {
	f.done = true
	opt := r.p.host.Topo().UnloadedFCT(f.src, r.p.id, f.size)
	r.p.col.FlowDone(stats.FlowRecord{
		ID: f.id, Src: int32(f.src), Dst: int32(r.p.id), Size: f.size,
		Arrival: f.arrival, Finish: r.p.eng.Now(), Optimal: opt,
	})
	// Remember only the id — duplicates and finish retransmissions
	// resolve through doneFlows — and recycle the whole record.
	r.doneFlows[f.id] = struct{}{}
	delete(r.flows, f.id)
	peers := r.bySender[f.src]
	last := len(peers) - 1
	if i := f.senderIdx; i != last {
		moved := peers[last]
		peers[i] = moved
		moved.senderIdx = i
	}
	peers[last] = nil
	r.bySender[f.src] = peers[:last]
	r.recycleRecvFlow(f)
}

// ---- data phase: token clocking ----

func (r *receiver) onEpochStart(e int64) {
	// Revert tokens from finished phases whose data never arrived: they
	// re-enter the demand pool and are re-admitted at the window start
	// when the sender is next matched (§3.2 loss recovery). Per-flow state
	// is independent, so map order is harmless here.
	for _, f := range r.flows {
		if f.done {
			continue
		}
		for f.tokened.len() > 0 && int64(f.tokened.front().epoch) < e {
			tr := f.tokened.pop()
			if f.state.get(int(tr.seq)) != seqTokened {
				continue // already received
			}
			f.state.set(int(tr.seq), seqUntokened)
			f.untokenedCnt++
			f.outstanding--
			r.p.sh.ins.tokensReverted.Inc()
			r.p.sh.ins.tokensOutstanding.Add(-1)
			f.retx.push(tr.seq)
		}
	}
	// Swap in the matching computed during the previous epoch.
	// Map order is harmless: the queue orders events by (time, seq), not
	// by the order they were cancelled in.
	for _, l := range r.loops {
		l.timer.Cancel()
	}
	r.matchedNow, r.matchedNext = r.matchedNext, r.matchedNow
	clear(r.matchedNext)
	total := 0
	// An int sum: map order cannot affect it.
	for _, ch := range r.matchedNow {
		total += ch
	}
	r.p.sh.ins.matchedChannels.Add(int64(total - r.matchedTotal))
	r.matchedTotal = total
	clear(r.loops)
	for _, src := range sortedKeys(r.matchedNow) {
		ch := r.matchedNow[src]
		if ch <= 0 {
			continue
		}
		l := &tokenLoop{
			src: src, channels: ch, epoch: e,
			interval: sim.Duration(int64(r.p.sh.mtuTime) * int64(r.p.sh.cfg.Channels) / int64(ch)),
		}
		r.loops[src] = l
		r.fireLoop(l)
	}
}

// window returns the token window for a flow whose sender holds ch
// channels: 1 BDP scaled by the matched share (§3.4).
func (r *receiver) window(ch int) int {
	w := r.p.sh.windowPkts * ch / r.p.sh.cfg.Channels
	if w < 1 {
		w = 1
	}
	return w
}

// fireLoop issues one token for the loop's sender, choosing the eligible
// flow with the smallest remaining bytes, then self-schedules. With no
// admissible work (window full or nothing pending) the loop stalls until
// data arrival or new demand resumes it.
func (r *receiver) fireLoop(l *tokenLoop) {
	if l.epoch != r.p.epoch {
		return // stale chain from a previous phase
	}
	var best *recvFlow
	var bestSeq int
	w := r.window(l.channels)
	for _, f := range r.bySender[l.src] {
		if !f.eligible || f.outstanding >= w {
			continue
		}
		seq := f.nextCandidate()
		if seq < 0 {
			continue
		}
		// SRPT with a flow-id tie-break so map order cannot leak into
		// the packet stream.
		if best == nil || f.remaining() < best.remaining() ||
			(f.remaining() == best.remaining() && f.id < best.id) {
			best, bestSeq = f, seq
		}
	}
	if best == nil {
		l.stalled = true
		l.timer = sim.Timer{}
		return
	}
	r.issueToken(l, best, bestSeq)
	l.stalled = false
	// Argument-form scheduling: the loop re-arms once per token issued
	// (line rate), so a closure here would allocate per data packet —
	// exactly what AfterFunc's event-stored arguments avoid (hotalloc
	// flagged the closure form this replaced).
	l.timer = r.p.eng.AfterFunc(l.interval, fireLoopFunc, r, l, 0)
}

// fireLoopFunc is the package-level AfterFunc trampoline for fireLoop:
// both arguments are pointers, so storing them in the event's any slots
// does not allocate.
func fireLoopFunc(a, b any, _ int) { a.(*receiver).fireLoop(b.(*tokenLoop)) }

func (r *receiver) issueToken(l *tokenLoop, f *recvFlow, seq int) {
	if f.retx.len() > 0 && int(f.retx.front()) == seq {
		f.retx.pop()
	}
	f.state.set(seq, seqTokened)
	f.untokenedCnt--
	f.outstanding++
	r.p.sh.ins.tokensIssued.Inc()
	r.p.sh.ins.tokensOutstanding.Add(1)
	f.tokened.push(tokenRef{seq: int32(seq), epoch: int32(l.epoch)})

	tok := packet.NewControl(packet.Token, r.p.id, f.src, f.id)
	tok.Seq = seq
	tok.Epoch = l.epoch
	tok.Count = int(prioForRemaining(f.remaining(), r.p.sh.bdp))
	tok.CumAck = f.receivedCnt
	r.p.send(tok)
}

// resumeLoop restarts a stalled token loop for src (data-clocked tokens
// and mid-phase demand arrivals).
func (r *receiver) resumeLoop(src int) {
	if l, ok := r.loops[src]; ok && l.stalled {
		r.fireLoop(l)
	}
}

// ---- matching phase (receiver side: request + accept) ----

// requestStage opens round `round` of the matching for `epoch` by sending
// RTS to every sender with unplanned demand, within the remaining channel
// budget (§3.1, §3.4).
func (r *receiver) requestStage(epoch int64, round int) {
	if round == 0 {
		r.matchEpoch = epoch
		r.used = 0
		for j, buf := range r.grantBuf {
			for _, g := range buf {
				packet.Release(g) // offer expired with its epoch
			}
			r.grantBuf[j] = emptied(buf)
		}
		clear(r.matchedNext)
		r.computePlanned()
	}
	free := r.p.sh.cfg.Channels - r.used
	if free <= 0 {
		return
	}
	// Iterate senders in id order: map order would make packet emission
	// (and thus the whole run) non-deterministic.
	for _, src := range sortedKeys(r.planned) {
		bytes := r.planned[src]
		if bytes <= 0 {
			continue
		}
		want := int((bytes + r.p.sh.channelBytes - 1) / r.p.sh.channelBytes)
		if want > free {
			want = free
		}
		rts := packet.NewControl(packet.RTS, r.p.id, src, 0)
		rts.Channels = want
		rts.Round = round
		rts.Epoch = epoch
		rts.Remaining = r.minRemainingFrom(src)
		r.p.send(rts)
	}
}

// computePlanned rebuilds per-sender unadmitted demand, net of what the
// just-started data phase is projected to deliver (§3.4's outstanding-byte
// bookkeeping).
func (r *receiver) computePlanned() {
	clear(r.planned)
	// Builds a map keyed per sender; consumers iterate it via sortedKeys.
	for src, flows := range r.bySender {
		var sum int64
		for _, f := range flows {
			if !f.eligible {
				continue
			}
			sum += f.demandBytes()
		}
		if ch := r.matchedNow[src]; ch > 0 {
			sum -= int64(ch) * r.p.sh.channelBytes
		}
		if sum > 0 {
			r.planned[src] = sum
		}
	}
}

func (r *receiver) minRemainingFrom(src int) int64 {
	best := int64(1) << 62
	for _, f := range r.bySender[src] {
		if !f.eligible {
			continue
		}
		if rem := f.remaining(); rem < best {
			best = rem
		}
	}
	return best
}

func (r *receiver) onGrant(g *packet.Packet) {
	if g.Epoch != r.matchEpoch || g.Round < 0 || g.Round >= r.rounds() {
		return
	}
	r.wake()
	g.Keep() // buffered until the round's accept tick
	//lint:ignore hotalloc one append per grant per matching round (epoch rate, not packet rate), bounded by the channel budget
	r.grantBuf[g.Round] = append(r.grantBuf[g.Round], g)
}

// acceptStage resolves the grants of the given round: smallest remaining
// flow first in the FCT round, random otherwise, within the channel
// budget (§3.4).
func (r *receiver) acceptStage(epoch int64, round int) {
	if epoch != r.matchEpoch || round < 0 || round >= r.rounds() || r.grantBuf == nil {
		return
	}
	// Include stragglers from earlier rounds (clock skew, queueing): a
	// late grant is still a valid offer for this epoch's matching.
	var grants []*packet.Packet
	for j := 0; j <= round; j++ {
		grants = append(grants, r.grantBuf[j]...)
		r.grantBuf[j] = emptied(r.grantBuf[j])
	}
	if len(grants) == 0 {
		return
	}
	if round == 0 && r.p.sh.cfg.FCTRound {
		sort.SliceStable(grants, func(i, j int) bool {
			return grants[i].Remaining < grants[j].Remaining
		})
	} else {
		rng := r.p.rng
		rng.Shuffle(len(grants), func(i, j int) { grants[i], grants[j] = grants[j], grants[i] })
	}
	free := r.p.sh.cfg.Channels - r.used
	for _, g := range grants {
		if free <= 0 {
			break
		}
		take := g.Channels
		if take > free {
			take = free
		}
		acc := packet.NewControl(packet.Accept, r.p.id, g.Src, 0)
		acc.Channels = take
		acc.Round = round
		acc.Epoch = epoch
		r.p.send(acc)
		r.p.sh.ins.roundAccept(round, take)
		r.used += take
		free -= take
		r.matchedNext[g.Src] += take
		r.planned[g.Src] -= int64(take) * r.p.sh.channelBytes
	}
	for _, g := range grants {
		packet.Release(g) // drained this round, accepted or not
	}
}

// sortedKeys returns map keys in ascending order, for deterministic
// iteration wherever packets are emitted.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
