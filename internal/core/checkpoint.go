package core

import (
	"sort"

	"dcpim/internal/checkpoint"
	"dcpim/internal/packet"
	"dcpim/internal/sim"
)

// Checkpoint capture for the dcPIM protocol core: CaptureState serializes
// one host's complete protocol state — matching progress, sender flow
// slab with its sent bitsets, receiver flow slab with its 2-bit seq
// states, token queues, buffered control packets, token loops, and every
// live timer deadline — canonically: maps are walked in sorted key order
// and slab free lists (pure allocator state) are excluded, so equal
// protocol states always serialize to equal bytes. netsim discovers this
// method through the StateCaptor interface; restore is by verified replay
// (experiments.Resume), never by mutating a live Proto.

// CaptureState implements netsim.StateCaptor.
func (p *Proto) CaptureState(enc *checkpoint.Encoder) {
	enc.I64(p.tick)
	enc.I64(p.epoch)
	p.snd.captureState(enc)
	p.rcv.captureState(enc)
}

func (s *sender) captureState(enc *checkpoint.Encoder) {
	enc.I64(s.matchEpoch)
	enc.I64(int64(s.committed))
	enc.I64(int64(s.reserved))
	enc.I64(s.dataEpoch)
	enc.Bool(s.pacing)
	enc.U32(uint32(len(s.rounds)))
	for _, r := range s.rounds {
		enc.I64(int64(r.granted))
		enc.I64(int64(r.accepted))
		enc.Bool(r.released)
	}
	enc.U32(uint32(len(s.tokens)))
	for _, tk := range s.tokens {
		captureCtlPacket(enc, tk)
	}
	// One buffer per round, in step with rounds; a sender that has not been
	// asked yet holds none, which reads as every round empty.
	enc.U32(uint32(len(s.rounds)))
	for j := range s.rounds {
		var round []*packet.Packet
		if s.rtsBuf != nil {
			round = s.rtsBuf[j]
		}
		enc.U32(uint32(len(round)))
		for _, rts := range round {
			captureCtlPacket(enc, rts)
		}
	}
	enc.U32(uint32(len(s.flows)))
	for _, id := range sortedU64Keys(s.flows) {
		f := s.flows[id]
		enc.U64(f.id)
		enc.I64(int64(f.dst))
		enc.I64(f.size)
		enc.I64(int64(f.arrival))
		enc.I64(int64(f.npkts))
		enc.Bool(f.short)
		enc.I64(int64(f.sentCnt))
		// Only the words covering npkts are state; the backing array may
		// be larger from a recycled record.
		for w := 0; w < (f.npkts+63)>>6; w++ {
			enc.U64(f.sent[w])
		}
		enc.Bool(f.notifAcked)
		enc.Bool(f.finSent)
		enc.Bool(f.done)
		captureTimer(enc, f.notifTimer)
		captureTimer(enc, f.finTimer)
		captureTimer(enc, f.burstTimer)
	}
}

func (r *receiver) captureState(enc *checkpoint.Encoder) {
	enc.I64(r.matchEpoch)
	enc.I64(int64(r.used))
	enc.I64(int64(r.matchedTotal))
	enc.U32(uint32(len(r.flows)))
	for _, id := range sortedU64Keys(r.flows) {
		f := r.flows[id]
		enc.U64(f.id)
		enc.I64(int64(f.src))
		enc.I64(f.size)
		enc.I64(int64(f.arrival))
		enc.I64(int64(f.npkts))
		enc.Bool(f.short)
		enc.I64(int64(f.nextNew))
		enc.I64(int64(f.outstanding))
		enc.I64(int64(f.untokenedCnt))
		enc.I64(int64(f.receivedCnt))
		enc.I64(f.receivedByte)
		enc.Bool(f.eligible)
		enc.Bool(f.done)
		for w := 0; w < (f.npkts+31)>>5; w++ {
			enc.U64(f.state[w])
		}
		enc.U32(uint32(len(f.tokened)))
		for _, tr := range f.tokened {
			enc.I64(int64(tr.seq))
			enc.I64(int64(tr.epoch))
		}
		enc.U32(uint32(len(f.retx)))
		for _, seq := range f.retx {
			enc.I64(int64(seq))
		}
		captureTimer(enc, f.recoverTimer)
	}
	// Completed-flow ids are remembered forever; fold them instead of
	// listing, keeping capture size independent of run length.
	enc.U32(uint32(len(r.doneFlows)))
	h := uint64(checkpoint.FoldInit)
	for _, id := range sortedU64Keys(r.doneFlows) {
		h = checkpoint.Fold(h, id)
	}
	enc.U64(h)
	enc.U32(uint32(len(r.planned)))
	for _, src := range sortedKeys(r.planned) {
		enc.I64(int64(src))
		enc.I64(r.planned[src])
	}
	// One buffer per round of the matching under way; a receiver that has
	// not woken holds none, which reads as every round empty.
	enc.U32(uint32(r.rounds()))
	for j := 0; j < r.rounds(); j++ {
		var round []*packet.Packet
		if r.grantBuf != nil {
			round = r.grantBuf[j]
		}
		enc.U32(uint32(len(round)))
		for _, g := range round {
			captureCtlPacket(enc, g)
		}
	}
	enc.U32(uint32(len(r.matchedNext)))
	for _, src := range sortedKeys(r.matchedNext) {
		enc.I64(int64(src))
		enc.I64(int64(r.matchedNext[src]))
	}
	enc.U32(uint32(len(r.matchedNow)))
	for _, src := range sortedKeys(r.matchedNow) {
		enc.I64(int64(src))
		enc.I64(int64(r.matchedNow[src]))
	}
	enc.U32(uint32(len(r.loops)))
	for _, src := range sortedKeys(r.loops) {
		l := r.loops[src]
		enc.I64(int64(l.src))
		enc.I64(int64(l.channels))
		enc.I64(int64(l.interval))
		enc.I64(l.epoch)
		enc.Bool(l.stalled)
		captureTimer(enc, l.timer)
	}
}

// captureTimer records a timer as (active, deadline) — the logical state;
// the event object identity behind the handle is allocator bookkeeping.
func captureTimer(enc *checkpoint.Encoder, t sim.Timer) {
	enc.Bool(t.Active())
	enc.I64(int64(t.At()))
}

// captureCtlPacket serializes a protocol-held control packet (tokens,
// buffered RTS/grants). These never carry payload or INT state.
func captureCtlPacket(enc *checkpoint.Encoder, p *packet.Packet) {
	enc.U8(uint8(p.Kind))
	enc.I64(int64(p.Src))
	enc.I64(int64(p.Dst))
	enc.U64(p.Flow)
	enc.I64(int64(p.Seq))
	enc.U8(p.Priority)
	enc.I64(p.FlowSize)
	enc.I64(p.Remaining)
	enc.I64(int64(p.Round))
	enc.I64(p.Epoch)
	enc.I64(int64(p.Channels))
	enc.I64(int64(p.Count))
}

// sortedU64Keys returns map keys in ascending order, for deterministic
// iteration over the flow slabs (the uint64 sibling of sortedKeys).
func sortedU64Keys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
