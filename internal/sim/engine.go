package sim

import (
	"math/bits"
	"math/rand"
	"unsafe"
)

// Engine is a deterministic discrete-event simulator. Events are executed
// in non-decreasing timestamp order; events scheduled for the same instant
// run in the order they were scheduled (stable FIFO tie-break), which keeps
// protocol state machines deterministic.
//
// Pending events live in two structures, both ordered by (time, seq): an
// inlined 4-ary min-heap and the lanes (lane.go). A 4-ary layout halves
// tree depth versus binary, so the sift loops touch fewer cache lines per
// operation, and inlining the comparisons avoids container/heap's
// interface-call overhead. Fired and cancelled events are recycled
// through a free list, so steady-state scheduling allocates nothing.
// Sharded execution (see Group) splits one simulation across several
// engines and relies on a two-band ordering of the seq field: ordinary
// events occupy band 0 (engine-local insertion sequence, top bit clear)
// and boundary-link arrivals occupy band 1 (ScheduleArrival, top bit
// set), whose ordinal is derived from the link identity rather than
// insertion order. Band-1 events therefore sort after every band-0 event
// at the same instant, and among themselves in a shard-count-invariant
// order — the property that makes sharded runs byte-identical to serial.
// Both bands share the heap: the key alone orders it.
type Engine struct {
	now Time
	// ord is one more than the seq of the event executing now (of the last
	// one executed, between events; 0 before the first). With now it is
	// the engine's position in the (time, seq) total order, which Passed
	// compares keys against. Run and SkipTo leave it at ordEnd: every key
	// at the horizon has passed.
	ord uint64
	q   []hent // 4-ary min-heap by (at, seq), events of both bands
	// lanes hold events of either band by value (lane.go); fronts[i]
	// caches lanes[i]'s head key (laneIdle when empty, and past the last
	// lane up to a power of two), and win is a winner tree over fronts
	// whose root win[1] is the lane with the least head key, so the drain
	// loop finds the earliest lane without scanning them or their blocks.
	lanes  []*Lane
	fronts []EventRecord
	win    []int32
	laneN  int // total records across lanes
	seq    uint64
	seed   int64
	src    *CountingSource // rng's source, counted so RNG position is checkpointable
	rng    *rand.Rand
	nEvent uint64 // total events executed, for instrumentation
	free   *event // recycled-event free list
	freeN  int

	blocks *laneBlock // pool of drained lane blocks, linked through next

	journalOn bool
	journal   []EventRecord
}

// maxFreeEvents bounds the event free list. A transient event burst
// (fan-in spikes at high load hold 10^6+ concurrent events) would
// otherwise pin its peak allocation for the rest of a long campaign;
// recycles past the bound are dropped for the GC instead. A variable so
// tests can shrink it.
var maxFreeEvents = 1 << 15

// event is one scheduled callback. Events are owned by the engine: when
// one fires or is cancelled it returns to the free list and its gen is
// bumped, which atomically invalidates every outstanding Timer handle.
// An event's execution-order key lives in its heap slot (hent), which is
// what checkpoints capture (EngineState, checkpoint.go); the callback is
// a Go func value and is never serialized.
type event struct {
	eng *Engine
	gen uint32 // timer-invalidation stamp
	idx int32  // heap slot

	// fn runs with the event's arguments, so hot paths (one event per
	// packet hop) schedule a package-level function plus its arguments
	// without allocating a closure. Schedule and After queue a closure as
	// callFunc with the closure in a.
	fn   func(a, b any, i int)
	a, b any
	i    int

	next *event // free-list link
}

// hent is one heap slot: an event's (at, seq) key held inline beside the
// event it orders, so the sifts compare slots without dereferencing the
// scattered events. Only a slot that moves touches its event, to update
// the idx that Cancel finds it by.
type hent struct {
	at  Time
	seq uint64
	ev  *event
}

// before is the heap order — earlier time first, scheduling order as the
// tie-break — as a 0 or 1 computed without a branch: the borrow of the
// 128-bit subtraction (at1, seq1) − (at2, seq2), the time the high word
// with its sign bit flipped so that it compares unsigned. Picking the
// least of a node's children (siftDown) or of two lanes (Engine.lesser)
// with it costs no mispredicted branch, which the data-dependent
// comparisons otherwise would about half the time.
func before(at1 Time, seq1 uint64, at2 Time, seq2 uint64) uint64 {
	_, b := bits.Sub64(seq1, seq2, 0)
	_, b = bits.Sub64(uint64(at1)^1<<63, uint64(at2)^1<<63, b)
	return b
}

// Timer is a cancellable handle to a scheduled event. The zero Timer is
// inert: Cancel is a no-op and Active reports false. A handle stays safe
// to use after its event fires or is cancelled — the generation stamp
// detects that the underlying event object has been recycled, so a stale
// Cancel can never affect a newer timer reusing the same storage.
type Timer struct {
	ev  *event
	gen uint32
}

// Active reports whether the timer is still scheduled (not yet fired and
// not cancelled).
func (t Timer) Active() bool { return t.ev != nil && t.ev.gen == t.gen }

// At returns the time the timer fires, or 0 if it is no longer active.
// An active timer's event sits in the heap, at its idx.
func (t Timer) At() Time {
	if t.Active() {
		return t.ev.eng.q[t.ev.idx].at
	}
	return 0
}

// Cancel removes the timer's event from the queue so it will never run.
// Safe to call more than once, on the zero Timer, and on a timer that
// already fired.
func (t Timer) Cancel() {
	if t.Active() {
		t.ev.eng.remove(t.ev)
	}
}

// NewEngine returns an engine with the clock at zero and a random source
// seeded with seed.
func NewEngine(seed int64) *Engine {
	src := NewCountingSource(seed)
	p := &paddedEngine{Engine: Engine{seed: seed, src: src, rng: rand.New(src)}}
	return &p.Engine
}

// cacheLine is the unit of memory two cores contend for.
const cacheLine = 64

// paddedEngine rounds an Engine up to whole cache lines. The engines of a
// sharded run are made one after another and run side by side on
// different cores; were an Engine's size not a multiple of the line, one
// engine's tail would share a line with the next one's head, where every
// event writes now and ord.
type paddedEngine struct {
	Engine
	_ [(cacheLine - unsafe.Sizeof(Engine{})%cacheLine) % cacheLine]byte
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was constructed with. Components that
// need their own deterministic random streams (per-device RNGs in the
// sharded fabric) derive them from this.
func (e *Engine) Seed() int64 { return e.seed }

// NextAt returns the timestamp of the earliest pending event, or false
// when nothing is pending. Epoch runners use it to size the next
// conservative window, and to skip shards with no work inside it.
func (e *Engine) NextAt() (Time, bool) {
	src, at := e.next()
	if src == srcNone {
		return 0, false
	}
	return at, true
}

// Rand returns the engine's deterministic random source. All simulation
// components must draw randomness from here to preserve reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Events returns the number of events executed so far.
func (e *Engine) Events() uint64 { return e.nEvent }

// Pending returns the number of live events currently queued. Cancelled
// events are removed from the queue immediately and never counted.
func (e *Engine) Pending() int { return len(e.q) + e.laneN }

// alloc takes an event from the free list, or makes one: it allocates
// only while the live event population grows.
func (e *Engine) alloc() *event {
	t := e.free
	if t != nil {
		e.free = t.next
		e.freeN--
		t.next = nil
		return t
	}
	return &event{eng: e}
}

// recycle invalidates outstanding handles and returns t to the free
// list — unless the list is already at its bound, in which case the
// event is dropped for the GC so a transient burst's peak does not stay
// resident forever.
func (e *Engine) recycle(t *event) {
	t.gen++
	t.fn = nil
	t.a, t.b = nil, nil
	t.i = 0
	t.idx = -1
	if e.freeN >= maxFreeEvents {
		return
	}
	t.next = e.free
	e.free = t
	e.freeN++
}

// push allocates an event at absolute time at, stamps it with the next
// band-0 sequence number and inserts it into the heap. Scheduling
// in the past panics: it would silently corrupt causality.
func (e *Engine) push(at Time) *event {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	return e.insert(at, e.ReserveSeq())
}

// insert queues an event under the key (at, seq). The heap orders by the
// key alone, so seq need not be the newest one allocated
// (ScheduleReserved inserts keys reserved earlier, ScheduleArrival keys
// of the arrival band).
func (e *Engine) insert(at Time, seq uint64) *event {
	t := e.alloc()
	// Heap growth is amortized to the peak event population: the backing
	// array is reused for the rest of the run.
	e.q = append(e.q, hent{at, seq, t})
	siftUp(e.q, len(e.q)-1)
	return t
}

// arrivalBand is the top bit of the seq ordering key. Engine-local
// sequence numbers never reach it, so every ScheduleArrival event sorts
// after every ordinary event at the same timestamp.
const arrivalBand = uint64(1) << 63

// ScheduleArrival runs fn(a, b, i) at absolute time at, ordered among
// same-instant events by the band-1 key rather than by insertion order:
// all arrivals sort after every ordinarily-scheduled event at that
// instant, and among themselves by key. Callers derive the key from
// stable simulation identity (directed link id and per-link sequence),
// which makes the execution order independent of *when* the event was
// inserted — the property cross-shard staging queues need to keep
// sharded runs byte-identical to serial ones. Keys must be unique per
// (time, key) pair; the caller's per-link counters guarantee that.
// TestForwardingAllocs/cross-shard holds it allocation-free.
func (e *Engine) ScheduleArrival(at Time, key uint64, fn func(a, b any, i int), a, b any, i int) {
	if at < e.now {
		panic("sim: scheduling event in the past")
	}
	t := e.insert(at, arrivalBand|key)
	t.fn = fn
	t.a, t.b, t.i = a, b, i
}

// Schedule runs fn at absolute time at.
func (e *Engine) Schedule(at Time, fn func()) Timer {
	return e.ScheduleFunc(at, callFunc, fn, nil, 0)
}

// After runs fn d after the current time.
func (e *Engine) After(d Duration, fn func()) Timer {
	return e.AfterFunc(d, callFunc, fn, nil, 0)
}

// callFunc runs the closure Schedule or After queued in a. A func value
// is pointer-shaped, so carrying it as an any does not allocate.
func callFunc(a, _ any, _ int) { a.(func())() }

// AfterFunc runs fn(a, b, i) d after the current time. Unlike After it
// captures the arguments in the event itself rather than in a closure, so
// per-packet paths can schedule without allocating; fn should be a
// package-level function. Pointer-shaped arguments (the usual case) do
// not allocate when converted to any. TestEngineStepAllocs,
// TestGroupEpochAllocs and TestPacerMallocsPerPacket hold it allocation-free.
func (e *Engine) AfterFunc(d Duration, fn func(a, b any, i int), a, b any, i int) Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	t := e.push(e.now.Add(d))
	t.fn = fn
	t.a, t.b, t.i = a, b, i
	return Timer{ev: t, gen: t.gen}
}

// ordEnd is the position after every event of the current instant: no
// event's seq comes within two of it (band-1 keys are range-checked far
// below), so Passed(now, seq) holds for every seq once ord is ordEnd.
const ordEnd = ^uint64(0)

// ReserveSeq allocates the band-0 sequence number the next scheduled event
// would have taken, without queueing anything. A component that knows
// *when* it may need a wake-up but not yet *whether* reserves the key at
// the moment an eager implementation would have scheduled, and
// materialises it with ScheduleReserved only if work turns up; every
// other event keeps the seq it would have had either way, so execution
// order is identical to the eager schedule's (DESIGN.md §8.1).
func (e *Engine) ReserveSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// Passed reports whether the key (at, seq) lies behind the engine's
// position in the execution order: an event queued under it from the
// start would already have run. True when now > at, or now == at and the
// executing event's seq is greater — arrival-band events carry the top
// bit and so count as after every band-0 key of their instant. Once Run
// or SkipTo has returned, every key at or before the horizon has passed.
// The executing event's own key has not.
func (e *Engine) Passed(at Time, seq uint64) bool {
	return e.now > at || (e.now == at && e.ord > seq+1)
}

// ScheduleReserved runs fn(a, b, i) at the key (at, seq), seq having come
// from ReserveSeq. The key may be inserted long after it was reserved but
// never at or behind the executing event — that would run it out of
// order, so it panics. One key must be materialised at most once.
// It is the transmitter's wake-up, which TestForwardingAllocs holds
// allocation-free.
func (e *Engine) ScheduleReserved(at Time, seq uint64, fn func(a, b any, i int), a, b any, i int) {
	if at < e.now || (at == e.now && seq < e.ord) {
		panic("sim: reserved key is not ahead of the executing event")
	}
	t := e.insert(at, seq)
	t.fn = fn
	t.a, t.b, t.i = a, b, i
}

// ScheduleFunc runs fn(a, b, i) at absolute time at — the argument-form
// counterpart of Schedule, used by timeline installers (fault schedules)
// that place many events at pre-computed absolute times without building
// a closure per event.
func (e *Engine) ScheduleFunc(at Time, fn func(a, b any, i int), a, b any, i int) Timer {
	t := e.push(at)
	t.fn = fn
	t.a, t.b, t.i = a, b, i
	return Timer{ev: t, gen: t.gen}
}

// Where the next event sits: a lane index, or one of these.
const (
	srcNone = -1 - iota // nothing pending
	srcHeap             // the heap
)

// next finds the earliest pending event across the heap and the lanes,
// and returns where it sits and its time. Both order by (time, seq), so
// the merge is the single total order.
func (e *Engine) next() (src int, at Time) {
	src, at = srcNone, laneIdle.At
	seq := laneIdle.Seq
	if len(e.win) > 0 {
		if i := e.win[1]; e.fronts[i] != laneIdle {
			src, at, seq = int(i), e.fronts[i].At, e.fronts[i].Seq
		}
	}
	if len(e.q) > 0 {
		if h := &e.q[0]; h.at < at || (h.at == at && h.seq < seq) {
			src, at = srcHeap, h.at
		}
	}
	return src, at
}

// exec removes the event next found at src and runs it. A queued event is
// recycled before its callback runs, so the callback may immediately reuse
// the storage by scheduling new events; its own handle is already inert by
// the time it executes.
func (e *Engine) exec(src int) {
	var r laneRec
	if src == srcHeap {
		h := e.popRoot()
		t := h.ev
		r = laneRec{at: h.at, seq: h.seq, fn: t.fn, a: t.a, b: t.b, i: t.i}
		e.recycle(t)
	} else {
		// The lane's front record, its slot cleared so no block retains a
		// packet; a block that drains goes back to the pool at once.
		l := e.lanes[src]
		h, k := l.head, l.hi
		r, h.recs[k] = h.recs[k], laneRec{}
		l.hi, l.n = k+1, l.n-1
		e.laneN--
		if l.hi == laneBlockRecs || l.n == 0 {
			l.dropHead()
		}
		e.setFront(src, l.front())
	}
	e.now = r.at
	e.ord = r.seq + 1
	e.nEvent++
	if e.journalOn {
		// An opt-in replay journal: default runs never reach this append.
		e.journal = append(e.journal, EventRecord{At: r.at, Seq: r.seq})
	}
	r.fn(r.a, r.b, r.i)
}

// Step executes the next pending event, if any, and reports whether one
// ran. TestEngineStepAllocs holds it allocation-free.
func (e *Engine) Step() bool {
	src, _ := e.next()
	if src == srcNone {
		return false
	}
	e.exec(src)
	return true
}

// SkipTo advances the clock to at without executing anything. Callers
// must have checked that no pending event is stamped at or before at
// (Group's idle-skip dispatch does, via NextAt); otherwise events would
// run late. Equivalent to Run(at) on an idle engine, minus the queue
// peeks.
func (e *Engine) SkipTo(at Time) {
	if at >= e.now {
		e.now = at
		e.ord = ordEnd
	}
}

// Run executes events until nothing is pending or the clock would pass
// until. Events stamped exactly at until still run. The clock is left at
// the later of its current value and until when the horizon is hit.
// TestGroupEpochAllocs and TestForwardingAllocs/cross-shard hold it
// allocation-free.
func (e *Engine) Run(until Time) {
	for {
		src, at := e.next()
		if src == srcNone || at > until {
			break
		}
		e.exec(src)
	}
	if e.now <= until {
		e.now = until
		e.ord = ordEnd
	}
}

// RunAll executes events until the queue drains. Intended for workloads
// with a natural end (all flows complete); a runaway protocol that
// reschedules itself forever will not terminate, so callers with periodic
// timers should use Run.
func (e *Engine) RunAll() {
	for e.Step() {
	}
}

// popRoot removes and returns the heap's minimum slot; its event is not
// recycled (exec still needs its fields).
func (e *Engine) popRoot() hent {
	q := e.q
	h := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = hent{}
	e.q = q[:n]
	if n > 0 {
		q[0] = last
		siftDown(q[:n], 0)
	}
	return h
}

// remove deletes an arbitrary queued event (cancellation) and recycles
// it. Only band-0 events can be cancelled: ScheduleArrival returns no
// Timer, so arrival events never come through here.
func (e *Engine) remove(t *event) {
	i, q := int(t.idx), e.q
	n := len(q) - 1
	last := q[n]
	q[n] = hent{}
	q = q[:n]
	e.q = q
	if i != n {
		q[i] = last
		siftUp(q, i)
		if int(last.ev.idx) == i {
			siftDown(q, i)
		}
	}
	e.recycle(t)
}

// siftUp restores the heap above index i (4-ary: parent of i is (i-1)/4).
func siftUp(q []hent, i int) {
	h := q[i]
	for i > 0 {
		p := (i - 1) >> 2
		if before(h.at, h.seq, q[p].at, q[p].seq) == 0 {
			break
		}
		q[i] = q[p]
		q[i].ev.idx = int32(i)
		i = p
	}
	q[i] = h
	h.ev.idx = int32(i)
}

// siftDown restores the heap below index i (4-ary: children 4i+1..4i+4).
// The four children's keys sit side by side in the slots, so choosing the
// least reads one or two cache lines, no event, and takes no branch.
func siftDown(q []hent, i int) {
	n := len(q)
	h := q[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := min(c+4, n)
		for j := c + 1; j < hi; j++ {
			m ^= (m ^ j) & -int(before(q[j].at, q[j].seq, q[m].at, q[m].seq))
		}
		if before(q[m].at, q[m].seq, h.at, h.seq) == 0 {
			break
		}
		q[i] = q[m]
		q[i].ev.idx = int32(i)
		i = m
	}
	q[i] = h
	h.ev.idx = int32(i)
}
