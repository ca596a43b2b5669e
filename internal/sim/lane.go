package sim

import "math"

// Lane is a FIFO of events that all fire the same constant delay after
// they are scheduled. The clock never moves backwards and band-0 sequence
// numbers only grow, so such events are produced already sorted by
// (time, seq): they need a queue, not a priority queue. A lane stores them
// by value in fixed-size blocks — no event object, no heap sift — under
// the exact keys AfterFunc and ScheduleArrival would have used, and the
// engine's drain loop takes the minimum over the heap and the lane
// fronts. Every structure orders by the key alone, so which one holds an
// event is invisible to execution order (DESIGN.md §8.1.2): a caller may
// route any constant-delay schedule through a lane and any other through
// the heap, in any mix. The blocks come from one pool per engine and go
// back to it as they drain, so the delay lanes of an engine hold what is
// in flight on them together, not what each once peaked at.
//
// A lane made by NewTimeLane is filled in time order instead
// (AtReserved): it holds events whose absolute times were known up front
// and are handed over sorted, such as a trace's flow arrivals. A lane is
// filled one way or the other, never both.
//
// Lane events cannot be cancelled (no Timer is returned); they are meant
// for events that never are: per-hop fabric latencies, fixed-interval
// protocol clocks, trace injection. A Lane is 64 bytes, one cache line
// (TestLaneLayout), since every event it holds touches it twice.
type Lane struct {
	eng *Engine  // owner
	d   Duration // the constant delay; timed for a NewTimeLane
	id  int      // position in Engine.lanes

	// The records, strictly increasing in (at, seq), sit in a FIFO of
	// blocks from hi in head to ti in tail. An empty lane holds no block:
	// head and tail are nil and ti is laneBlockRecs, so the next record
	// takes a block from the engine's pool (Engine.takeBlock).
	head, tail *laneBlock
	hi, ti     int32
	n          int

	// spare is a time lane's blocks not yet filled, cut from the one slab
	// NewTimeLane made and linked through next.
	spare *laneBlock
}

// laneRec is one lane event, 64 bytes: its execution-order key and the
// argument-form callback. Checkpoints capture the key only, as for event.
type laneRec struct {
	at   Time
	seq  uint64
	fn   func(a, b any, i int)
	a, b any
	i    int
}

// laneBlockRecs is the records a lane block holds. With its two links a
// block is 2000 bytes, inside the allocator's 2048-byte class.
const laneBlockRecs = 31

// laneBlock is a lane's unit of storage. A lane links its blocks head to
// tail through next and back through prev, which put's same-instant walk
// follows; a block in the engine's pool is linked through next alone.
type laneBlock struct {
	recs       [laneBlockRecs]laneRec
	next, prev *laneBlock
}

// laneIdle is the cached front key of an empty lane. It compares after
// every real key: no event's seq reaches ordEnd.
var laneIdle = EventRecord{At: Time(math.MaxInt64), Seq: ordEnd}

// timed is the delay of a lane filled by AtReserved: no delay applies.
const timed Duration = -1

// NewLane returns a lane whose events fire d after they are scheduled.
// Lanes live as long as the engine; create them at wiring time, one per
// distinct delay.
func (e *Engine) NewLane(d Duration) *Lane {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.newLane(d)
}

// NewTimeLane returns a lane filled in time order by AtReserved with n
// records. Its blocks are its own, cut from one slab made here and never
// taken from or given to the engine's pool: a lane filled once, such as a
// trace's arrivals, costs one allocation however many records it holds,
// the slab goes to the GC once they have all run, and the pool does not
// grow to the size of the trace. Records past n take a block each.
func (e *Engine) NewTimeLane(n int) *Lane {
	l := e.newLane(timed)
	slab := make([]laneBlock, (n+laneBlockRecs-1)/laneBlockRecs)
	link := &l.spare
	for k := range slab {
		*link = &slab[k]
		link = &slab[k].next
	}
	return l
}

func (e *Engine) newLane(d Duration) *Lane {
	l := &Lane{eng: e, d: d, id: len(e.lanes), ti: laneBlockRecs}
	e.lanes = append(e.lanes, l)
	if l.id == len(e.fronts) {
		e.growFronts()
	}
	return l
}

// growFronts doubles the leaves of the lanes' winner tree (or makes the
// first), the new ones idle, and rebuilds the tree: win[n+i] is leaf i,
// win[j] the lane with the lesser front of win[2j] and win[2j+1]. It
// runs when an engine's lane count reaches a power of two, at wiring time.
func (e *Engine) growFronts() {
	n := max(1, 2*len(e.fronts))
	fronts := make([]EventRecord, n)
	k := copy(fronts, e.fronts)
	for i := k; i < n; i++ {
		fronts[i] = laneIdle
	}
	e.fronts = fronts
	e.win = make([]int32, 2*n)
	for i := range n {
		e.win[n+i] = int32(i)
	}
	for j := n - 1; j >= 1; j-- {
		e.win[j] = e.lesser(e.win[2*j], e.win[2*j+1])
	}
}

// lesser returns whichever of lanes a and b has the lesser front.
func (e *Engine) lesser(a, b int32) int32 {
	fa, fb := &e.fronts[a], &e.fronts[b]
	return a ^ (a^b)&-int32(before(fb.At, fb.Seq, fa.At, fa.Seq))
}

// setFront caches lane i's front key and replays i's path up the winner
// tree: log2 of the lane count in comparisons per lane event, where the
// drain loop would otherwise compare every lane's front per event. The
// walk always reaches the root; stopping where the winner stays put costs
// more in mispredicted branches than the levels it saves.
func (e *Engine) setFront(i int, f EventRecord) {
	e.fronts[i] = f
	w := e.win
	for j := (len(e.fronts) + i) >> 1; j >= 1; j >>= 1 {
		w[j] = e.lesser(w[2*j], w[2*j+1])
	}
}

// After runs fn(a, b, i) the lane's delay after the current time, under
// the key AfterFunc would have given it: the next band-0 sequence number.
// TestForwardingAllocs holds it allocation-free.
func (l *Lane) After(fn func(a, b any, i int), a, b any, i int) {
	e := l.eng
	if l.d == timed {
		panic("sim: After on a lane filled by AtReserved")
	}
	l.put(e.now.Add(l.d), e.ReserveSeq(), fn, a, b, i)
}

// Arrive runs fn(a, b, i) the lane's delay after the current time, under
// the arrival-band key ScheduleArrival would have given it.
// TestForwardingAllocs holds it allocation-free.
func (l *Lane) Arrive(key uint64, fn func(a, b any, i int), a, b any, i int) {
	if l.d == timed {
		panic("sim: Arrive on a lane filled by AtReserved")
	}
	l.put(l.eng.now.Add(l.d), arrivalBand|key, fn, a, b, i)
}

// AtReserved runs fn(a, b, i) at the key (at, seq), seq having come from
// ReserveSeq: a caller that must hand records over in time order but owes
// them keys in some other order (a trace not sorted by arrival) reserves
// the keys first. The lane must come from NewTimeLane; AtReserved panics
// on a time before the clock and on a key that does not follow the
// lane's tail.
func (l *Lane) AtReserved(at Time, seq uint64, fn func(a, b any, i int), a, b any, i int) {
	e := l.eng
	if l.d != timed {
		panic("sim: AtReserved on a lane filled by delay")
	}
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	if l.n > 0 {
		if t := &l.tail.recs[l.ti-1]; at < t.at || (at == t.at && seq <= t.seq) {
			panic("sim: lane record does not follow the lane's tail")
		}
	}
	if l.ti == laneBlockRecs {
		l.extend()
	}
	l.tail.recs[l.ti] = laneRec{at: at, seq: seq, fn: fn, a: a, b: b, i: i}
	l.ti++
	l.n++
	e.laneN++
	if l.n == 1 {
		e.setFront(l.id, EventRecord{At: at, Seq: seq})
	}
}

// put appends a record and restores the order. The time is never before
// the tail's, so only neighbours of the record's own picosecond can be
// out of place: the record is swapped towards the head past those that
// carry a larger seq, across block edges through prev. Band-0 seqs grow
// with every call, so an After record moves only past arrival-band
// records of its instant (a lane shared with Arrive); identity keys are
// not insertion-ordered, so an Arrive record may move past other
// arrivals. Earlier instants stop the walk at once — the common case for
// both.
func (l *Lane) put(at Time, seq uint64, fn func(a, b any, i int), a, b any, i int) {
	if l.ti == laneBlockRecs {
		l.extend()
	}
	blk, k := l.tail, l.ti
	blk.recs[k] = laneRec{at: at, seq: seq, fn: fn, a: a, b: b, i: i}
	l.ti++
	l.n++
	l.eng.laneN++
	for k != l.hi || blk != l.head {
		pb, pk := blk, k-1
		if k == 0 {
			pb, pk = blk.prev, laneBlockRecs-1
		}
		if prev := &pb.recs[pk]; prev.at != at || prev.seq < seq {
			return
		}
		pb.recs[pk], blk.recs[k] = blk.recs[k], pb.recs[pk]
		blk, k = pb, pk
	}
	l.eng.setFront(l.id, EventRecord{At: at, Seq: seq})
}

// extend links a block behind the tail, the lane's first when it is
// empty: from the engine's pool, or for a time lane from its slab
// (NewTimeLane).
func (l *Lane) extend() {
	var b *laneBlock
	switch {
	case l.d != timed:
		b = l.eng.takeBlock()
	case l.spare != nil:
		b, l.spare = l.spare, l.spare.next
		b.next = nil
	default:
		b = new(laneBlock)
	}
	if l.tail == nil {
		l.head, l.hi = b, 0
	} else {
		l.tail.next, b.prev = b, l.tail
	}
	l.tail, l.ti = b, 0
}

// dropHead unlinks the drained head block and hands it back to the
// engine's pool, or leaves it to the GC from a time lane: the drain loop
// (Engine.exec) calls it once a pop runs past the block's last slot or
// empties the lane. Every slot of the block has been cleared as it was
// popped, so the pool retains no packet.
func (l *Lane) dropHead() {
	h := l.head
	if l.n == 0 {
		l.head, l.tail, l.hi, l.ti = nil, nil, 0, laneBlockRecs
	} else {
		l.head, l.hi = h.next, 0
		l.head.prev = nil
	}
	if l.d != timed {
		l.eng.freeBlock(h)
	}
}

// front returns the key of the lane's front record, laneIdle when empty.
func (l *Lane) front() EventRecord {
	if l.n == 0 {
		return laneIdle
	}
	h := &l.head.recs[l.hi]
	return EventRecord{At: h.at, Seq: h.seq}
}

// takeBlock returns a block from the engine's pool, or makes one: the
// delay lanes allocate only while the records they hold together grow
// past what they held before.
func (e *Engine) takeBlock() *laneBlock {
	b := e.blocks
	if b == nil {
		return new(laneBlock)
	}
	e.blocks, b.next = b.next, nil
	return b
}

// freeBlock returns a drained block, every slot already cleared, to the
// pool.
func (e *Engine) freeBlock(b *laneBlock) {
	b.next, b.prev = e.blocks, nil
	e.blocks = b
}
