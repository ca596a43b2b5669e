// Package flowtrack is the per-flow sequence bookkeeping every transport
// shares — dcPIM (internal/core) and the baselines (pHost, Homa/Aeolus,
// NDP, HPCC, TCP, Fastpass): which packets of an incoming flow are still
// needed, which have credit (a grant, token or pull) outstanding, and
// which have arrived, and which packets of an outgoing flow were sent.
//
// A 1024-host run at high load holds 10^4–10^6 concurrent flows, so the
// records are compact: 2 bits per packet at the receiver, 1 bit at the
// sender, and Reset reuses a record's arrays, so a transport that
// recycles its records settles into allocating nothing per flow. A
// finished flow leaves its transport's live map: Record builds its
// completion record, and the transport keeps only its id, so duplicates
// that arrive later resolve against a finished flow instead of recreating
// it.
package flowtrack

import (
	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
)

// Seq states.
const (
	Needed uint8 = iota // not yet granted/credited
	Granted
	Received
)

// Rx tracks one incoming flow at a receiver.
type Rx struct {
	ID      uint64
	Src     int
	Size    int64
	Arrival sim.Time
	Npkts   int

	state       []uint64    // 2 bits per seq: Needed, Granted or Received
	retx        FIFO[int32] // reverted seqs awaiting re-request, in revert order
	nextNew     int         // lowest seq never granted
	Outstanding int         // granted, data not yet received
	RecvBytes   int64
	RecvCnt     int
	MaxReceived int // highest seq received so far (-1 before any arrival)
	Done        bool
}

// NewRx builds receiver state from any packet of the flow (which carries
// FlowSize and the sender's send timestamp).
func NewRx(p *packet.Packet) *Rx {
	f := new(Rx)
	f.Reset(p)
	return f
}

// Reset starts f over as the flow p belongs to, every seq Needed, keeping
// the arrays of the flow it tracked before.
func (f *Rx) Reset(p *packet.Packet) {
	n := packet.PacketsForBytes(p.FlowSize)
	state, retx := zeroed(f.state, (n+31)>>5), f.retx
	retx.Reset()
	*f = Rx{
		ID: p.Flow, Src: p.Src, Size: p.FlowSize, Arrival: p.SentAt, Npkts: n,
		state: state, retx: retx, MaxReceived: -1,
	}
}

// State returns seq's state: Needed, Granted or Received.
func (f *Rx) State(seq int) uint8 {
	return uint8(f.state[seq>>5] >> ((uint(seq) & 31) * 2) & 3)
}

func (f *Rx) set(seq int, v uint8) {
	sh := (uint(seq) & 31) * 2
	w := &f.state[seq>>5]
	*w = *w&^(3<<sh) | uint64(v)<<sh
}

// Remaining returns bytes not yet received.
func (f *Rx) Remaining() int64 { return f.Size - f.RecvBytes }

// NeededCnt returns the number of packets in Needed state.
func (f *Rx) NeededCnt() int { return f.Npkts - f.RecvCnt - f.Outstanding }

// MarkReceived records arrival of seq and returns the payload bytes it
// contributed (0 for duplicates, out-of-range, or after completion).
func (f *Rx) MarkReceived(seq, wireSize int) int64 {
	if f.Done || seq < 0 || seq >= f.Npkts {
		return 0
	}
	switch f.State(seq) {
	case Received:
		return 0
	case Granted:
		f.Outstanding--
	}
	f.set(seq, Received)
	f.RecvCnt++
	if seq > f.MaxReceived {
		f.MaxReceived = seq
	}
	payload := int64(wireSize) - packet.HeaderSize
	if payload < 0 {
		payload = 0
	}
	f.RecvBytes += payload
	if f.RecvBytes >= f.Size {
		f.Done = true
	}
	return payload
}

// NextNeeded returns the seq to request next, or -1: the oldest reverted
// seq still Needed, else the lowest never-granted one.
func (f *Rx) NextNeeded() int {
	for f.retx.Len() > 0 {
		if s := int(f.retx.Front()); f.State(s) == Needed {
			return s
		}
		f.retx.Pop()
	}
	for f.nextNew < f.Npkts && f.State(f.nextNew) != Needed {
		f.nextNew++
	}
	if f.nextNew < f.Npkts {
		return f.nextNew
	}
	return -1
}

// Grant transitions seq from Needed to Granted (credit sent).
func (f *Rx) Grant(seq int) {
	if f.State(seq) != Needed {
		return
	}
	if f.retx.Len() > 0 && int(f.retx.Front()) == seq {
		f.retx.Pop()
	}
	f.set(seq, Granted)
	f.Outstanding++
}

// SkipGrant marks seq as Granted without Outstanding accounting — used
// for the unscheduled prefix the sender transmits without credit, so that
// NextNeeded starts beyond it.
func (f *Rx) SkipGrant(seq int) {
	if f.State(seq) == Needed {
		f.set(seq, Granted)
		f.Outstanding++
	}
}

// Revert returns seq from Granted to Needed and queues it for re-request
// behind every seq reverted before it. It reports whether seq was
// Granted; any other seq is left as it is.
func (f *Rx) Revert(seq int) bool {
	if f.State(seq) != Granted {
		return false
	}
	f.set(seq, Needed)
	f.Outstanding--
	f.retx.Push(int32(seq))
	return true
}

// RevertStale returns every Granted-but-unreceived seq at or below maxSeq
// to the Needed state (timeout-driven loss recovery) and reports how many
// were reverted.
func (f *Rx) RevertStale(maxSeq int) int {
	if f.Done {
		return 0
	}
	n, last := 0, min(maxSeq, f.Npkts-1)
	for seq := 0; seq <= last; seq++ {
		if f.Revert(seq) {
			n++
		}
	}
	return n
}

// RevertGaps returns Granted-but-unreceived seqs that sit more than slack
// packets below the highest received seq back to Needed — the gap-based
// drop detector: a later packet arrived, so anything this far behind it
// was dropped, not merely delayed. Returns the number reverted.
func (f *Rx) RevertGaps(slack int) int {
	if f.Done || f.MaxReceived < 0 {
		return 0
	}
	return f.RevertStale(f.MaxReceived - slack)
}

// Record is the completion record of f, finished now at h, its receiving
// host; Optimal is the flow's unloaded completion time on h's topology.
func (f *Rx) Record(h *netsim.Host) stats.FlowRecord {
	return stats.FlowRecord{
		ID: f.ID, Src: int32(f.Src), Dst: int32(h.ID()), Size: f.Size,
		Arrival: f.Arrival, Finish: h.Engine().Now(),
		Optimal: h.Topo().UnloadedFCT(f.Src, h.ID(), f.Size),
	}
}

// Tx tracks one outgoing flow at a sender.
type Tx struct {
	ID      uint64
	Dst     int
	Size    int64
	Arrival sim.Time
	Npkts   int

	sent    []uint64 // 1 bit per seq
	SentCnt int
	Done    bool
}

// NewTx builds sender state for a flow.
func NewTx(id uint64, dst int, size int64, arrival sim.Time) *Tx {
	f := new(Tx)
	f.Reset(id, dst, size, arrival)
	return f
}

// Reset starts f over as a new flow, nothing sent, keeping the array of
// the flow it tracked before.
func (f *Tx) Reset(id uint64, dst int, size int64, arrival sim.Time) {
	n := packet.PacketsForBytes(size)
	*f = Tx{
		ID: id, Dst: dst, Size: size, Arrival: arrival, Npkts: n,
		sent: zeroed(f.sent, (n+63)>>6),
	}
}

// MarkSent records transmission of seq (idempotent).
func (f *Tx) MarkSent(seq int) {
	if seq < 0 || seq >= f.Npkts {
		return
	}
	if w, bit := &f.sent[seq>>6], uint64(1)<<(uint(seq)&63); *w&bit == 0 {
		*w |= bit
		f.SentCnt++
	}
}

// Sent reports whether seq was ever transmitted.
func (f *Tx) Sent(seq int) bool {
	return seq >= 0 && seq < f.Npkts && f.sent[seq>>6]>>(uint(seq)&63)&1 != 0
}

// RemainingBytes approximates untransmitted payload.
func (f *Tx) RemainingBytes() int64 {
	return int64(f.Npkts-f.SentCnt) * packet.PayloadSize
}

// zeroed returns w zeroed words, reusing buf's array when it is large
// enough: once the largest flow shape has been seen, a recycled tracker
// allocates nothing.
func zeroed(buf []uint64, w int) []uint64 {
	if cap(buf) >= w {
		buf = buf[:w]
		clear(buf)
		return buf
	}
	return make([]uint64, w)
}

// FIFO is a first-in, first-out queue that keeps its backing array. A pop
// advances head rather than reslicing the front away (x = x[1:] strands
// the popped slots, so append reallocates once the tail reaches the end
// however short the queue is), and a push that finds the array full
// slides the live entries down first when at least half of it has been
// popped. The array therefore grows only while the queue itself does,
// to at most four times its longest length, and a queue at steady length
// allocates nothing. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued entries.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Front returns the oldest entry; the queue must not be empty.
func (q *FIFO[T]) Front() T { return q.buf[q.head] }

// Live returns the queued entries, oldest first, in place.
func (q *FIFO[T]) Live() []T { return q.buf[q.head:] }

// Pop removes and returns the oldest entry; the queue must not be empty.
func (q *FIFO[T]) Pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return x
}

// Push appends x as the newest entry.
func (q *FIFO[T]) Push(x T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	// The array grows only while the queue's length does: pops leave their
	// slots to later pushes.
	q.buf = append(q.buf, x)
}

// Truncate keeps the n oldest entries, for a caller that compacted
// Live() in place.
func (q *FIFO[T]) Truncate(n int) {
	clear(q.buf[q.head+n:])
	q.buf = q.buf[:q.head+n]
	if n == 0 {
		q.buf, q.head = q.buf[:0], 0
	}
}

// Reset empties the queue, keeping its array.
func (q *FIFO[T]) Reset() { q.Truncate(0) }
