package sim

import "math"

// Lane is a FIFO of events that all fire the same constant delay after
// they are scheduled. The clock never moves backwards and band-0 sequence
// numbers only grow, so such events are produced already sorted by
// (time, seq): they need a queue, not a priority queue. A lane stores them
// by value in a ring — no event object, no heap sift, no free list — under
// the exact keys AfterFunc and ScheduleArrival would have used, and the
// engine's drain loop takes the minimum over the band-0 queue, the arrival
// heap and the lane fronts. Every structure orders by the key alone, so
// which one holds an event is invisible to execution order (DESIGN.md
// §8.1.2): a caller may route any constant-delay schedule through a lane
// and any other through the queues, in any mix.
//
// Lane events cannot be cancelled (no Timer is returned); they are meant
// for per-hop fabric latencies, which never are.
type Lane struct {
	eng *Engine  //ckpt:skip owner back-pointer, re-established when the rebuilt engine's owner calls NewLane
	d   Duration //ckpt:skip construction input, supplied again by the resuming run's NewLane
	id  int      //ckpt:skip position in Engine.lanes, fixed by construction order

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
	fn   func(a, b any, i int) //ckpt:skip closure, rebound by RebindFunc on restore
	a, b any                   //ckpt:skip closure arguments, rebound with fn
	i    int                   //ckpt:skip closure argument, rebound with fn
}

// laneMinSlots is a lane's first ring size.
const laneMinSlots = 16

// laneIdle is the cached front key of an empty lane. It compares after
// every real key: no event's seq reaches ordEnd.
var laneIdle = EventRecord{At: Time(math.MaxInt64), Seq: ordEnd}

// NewLane returns a lane whose events fire d after they are scheduled.
// Lanes live as long as the engine; create them at wiring time, one per
// distinct delay.
func (e *Engine) NewLane(d Duration) *Lane {
	if d < 0 {
		panic("sim: negative delay")
	}
	l := &Lane{eng: e, d: d, id: len(e.lanes)}
	e.lanes = append(e.lanes, l)
	e.fronts = append(e.fronts, laneIdle)
	return l
}

// After runs fn(a, b, i) the lane's delay after the current time, under
// the key AfterFunc would have given it: the next band-0 sequence number.
//
//lint:hotpath one event per packet hop; 0-alloc contract of BenchmarkFabricForwarding
func (l *Lane) After(fn func(a, b any, i int), a, b any, i int) {
	e := l.eng
	l.put(e.now.Add(l.d), e.ReserveSeq(), fn, a, b, i)
}

// Arrive runs fn(a, b, i) the lane's delay after the current time, under
// the arrival-band key ScheduleArrival would have given it.
//
//lint:hotpath one event per packet hop; 0-alloc contract of BenchmarkFabricForwarding
func (l *Lane) Arrive(key uint64, fn func(a, b any, i int), a, b any, i int) {
	l.put(l.eng.now.Add(l.d), arrivalBand|key, fn, a, b, i)
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
	l.eng.fronts[l.id] = EventRecord{At: at, Seq: seq}
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

// pop removes the front record — clearing its slot, so the ring retains
// no packet — and refreshes the engine's cached front key.
func (l *Lane) pop() laneRec {
	r := l.buf[l.head]
	l.buf[l.head] = laneRec{}
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	l.eng.laneN--
	if l.n == 0 {
		l.eng.fronts[l.id] = laneIdle
	} else {
		nx := &l.buf[l.head]
		l.eng.fronts[l.id] = EventRecord{At: nx.at, Seq: nx.seq}
	}
	return r
}

// reset drops every record (RestoreState: restored events go to the
// queues).
func (l *Lane) reset() {
	clear(l.buf)
	l.eng.laneN -= l.n
	l.head, l.n = 0, 0
	l.eng.fronts[l.id] = laneIdle
}
