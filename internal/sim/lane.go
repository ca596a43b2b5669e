package sim

import "math"

// Lane is a FIFO of events that all fire the same constant delay after
// they are scheduled. The clock never moves backwards and band-0 sequence
// numbers only grow, so such events are produced already sorted by
// (time, seq): they need a queue, not a priority queue. A lane stores them
// by value in a ring — no event object, no heap sift, no free list — under
// the exact keys AfterFunc and ScheduleArrival would have used, and the
// engine's drain loop takes the minimum over the heap and the lane
// fronts. Every structure orders by the key alone, so which one holds an
// event is invisible to execution order (DESIGN.md §8.1.2): a caller may
// route any constant-delay schedule through a lane and any other through
// the heap, in any mix.
//
// A lane made by NewTimeLane is filled in time order instead
// (AtReserved): it holds events whose absolute times were known up front
// and are handed over sorted, such as a trace's flow arrivals. A lane is
// filled one way or the other, never both.
//
// Lane events cannot be cancelled (no Timer is returned); they are meant
// for events that never are: per-hop fabric latencies, fixed-interval
// protocol clocks, trace injection.
type Lane struct {
	eng *Engine  // owner
	d   Duration // the constant delay; timed for a NewTimeLane
	id  int      // position in Engine.lanes

	// buf is a power-of-two ring holding n records from head, strictly
	// increasing in (at, seq). Allocated on first use: an engine may own
	// lanes that a given run never schedules on.
	buf  []laneRec
	head int
	n    int
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

// laneMinSlots is a lane's first ring size.
const laneMinSlots = 16

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

// NewTimeLane returns a lane filled in time order by AtReserved, its
// ring sized at once for n records (0: grown as needed). Its ring is
// dropped when the lane drains, so a lane filled once, such as a trace's
// arrivals, holds no memory once they have all run.
func (e *Engine) NewTimeLane(n int) *Lane {
	l := e.newLane(timed)
	if n > 0 {
		size := laneMinSlots
		for size < n {
			size *= 2
		}
		l.buf = make([]laneRec, size)
	}
	return l
}

func (e *Engine) newLane(d Duration) *Lane {
	l := &Lane{eng: e, d: d, id: len(e.lanes)}
	e.lanes = append(e.lanes, l)
	if l.id == len(e.fronts) {
		e.growFronts()
	}
	return l
}

// growFronts doubles the leaves of the lanes' winner tree (or makes the
// first), the new ones idle, and rebuilds the tree: win[n+i] is leaf i,
// win[j] the lane with the lesser front of win[2j] and win[2j+1].
//
//lint:coldpath runs when an engine's lane count reaches a power of two, at wiring time
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
//
//lint:hotpath one event per packet hop; 0-alloc contract of BenchmarkFabricForwarding
func (l *Lane) After(fn func(a, b any, i int), a, b any, i int) {
	e := l.eng
	if l.d == timed {
		panic("sim: After on a lane filled by AtReserved")
	}
	l.put(e.now.Add(l.d), e.ReserveSeq(), fn, a, b, i)
}

// Arrive runs fn(a, b, i) the lane's delay after the current time, under
// the arrival-band key ScheduleArrival would have given it.
//
//lint:hotpath one event per packet hop; 0-alloc contract of BenchmarkFabricForwarding
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
		if t := &l.buf[(l.head+l.n-1)&(len(l.buf)-1)]; at < t.at || (at == t.at && seq <= t.seq) {
			panic("sim: lane record does not follow the lane's tail")
		}
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = laneRec{at: at, seq: seq, fn: fn, a: a, b: b, i: i}
	l.n++
	e.laneN++
	if l.n == 1 {
		e.setFront(l.id, EventRecord{At: at, Seq: seq})
	}
}

// put appends a record and restores the order. The time is never before
// the tail's, so only neighbours of the record's own picosecond can be
// out of place: the record is swapped towards the head past those that
// carry a larger seq. Band-0 seqs grow with every call, so an After
// record moves only past arrival-band records of its instant (a lane
// shared with Arrive); identity keys are not insertion-ordered, so an
// Arrive record may move past other arrivals. Earlier instants stop the
// walk at once — the common case for both.
func (l *Lane) put(at Time, seq uint64, fn func(a, b any, i int), a, b any, i int) {
	if l.n == len(l.buf) {
		l.grow()
	}
	mask := len(l.buf) - 1
	k := (l.head + l.n) & mask
	l.buf[k] = laneRec{at: at, seq: seq, fn: fn, a: a, b: b, i: i}
	l.n++
	l.eng.laneN++
	for k != l.head {
		p := (k - 1) & mask
		if prev := &l.buf[p]; prev.at != at || prev.seq < seq {
			return
		}
		l.buf[p], l.buf[k] = l.buf[k], l.buf[p]
		k = p
	}
	l.eng.setFront(l.id, EventRecord{At: at, Seq: seq})
}

// grow doubles the ring (or makes the first one), unrolling it to start
// at slot 0.
//
//lint:coldpath ring growth is amortized to the lane's peak occupancy; the ring is reused for the rest of the run
func (l *Lane) grow() {
	size := 2 * len(l.buf)
	if size == 0 {
		size = laneMinSlots
	}
	buf := make([]laneRec, size)
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf, l.head = buf, 0
}

// pop removes the front record, clearing its slot so the ring retains no
// packet; the engine refreshes the lane's cached front after it (front).
// A time lane that drains lets its ring go: it was filled once.
func (l *Lane) pop() laneRec {
	r := l.buf[l.head]
	l.buf[l.head] = laneRec{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	l.eng.laneN--
	if l.n == 0 && l.d == timed {
		l.buf, l.head = nil, 0
	}
	return r
}

// front returns the key of the lane's front record, laneIdle when empty.
func (l *Lane) front() EventRecord {
	if l.n == 0 {
		return laneIdle
	}
	h := &l.buf[l.head]
	return EventRecord{At: h.at, Seq: h.seq}
}
