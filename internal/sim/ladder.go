package sim

import "math"

// ladder is the calendar-queue ("ladder queue") discipline for the
// engine's band-0 events: an alternative to the inlined 4-ary heap that
// trades the heap's O(log n) sift cost for O(1) bucket appends, which
// wins once the pending-event population is large (1024-host and bigger
// fabrics hold 10^4–10^7 concurrent timers; see DESIGN.md §13/§16 for
// the measured crossover).
//
// Structure, front to back in time:
//
//   - active: a small 4-ary min-heap — the drain front. Holds every
//     event with at < activeEnd. Pops come only from here, so the pop
//     order is exactly eventLess (time, then seq), the same total order
//     the heap discipline uses: the two disciplines are execution-order
//     identical by construction (TestQueueDisciplineEquivalence drives
//     randomized schedules through both and asserts it).
//   - segs: ordered rungs, each an equal-width array of UNSORTED
//     buckets covering a contiguous span of future time. Events are
//     appended to their bucket in O(1). When the active heap drains, the
//     next non-empty bucket is heapified wholesale into it. A bucket
//     holding too many events for one heapify spawns a finer rung in
//     front, re-bucketing its contents — that keeps per-transfer work
//     bounded without ever sorting more than one bucket at a time.
//
// Far-future events — past the last rung's horizon — grow new upper
// rungs at the tail, each ladBuckets× coarser than the one before it,
// until a rung spans the timestamp. Rung count is therefore bounded by
// log_ladBuckets of the representable time span (≤ 8 rungs on 63-bit
// picoseconds), push's linear rung scan stays trivially cheap, and the
// old single overflow slice — whose drain re-bucketed the entire
// far-future population at once, a measured hot spot at 10^6–10^7
// pending events — is gone: upper rungs refine one bucket at a time
// through the same spawn step every other rung uses.
//
// Event location is tracked through event.bkt: nil while in the active
// heap (event.idx is the heap slot), otherwise a pointer to the unsorted
// bucket holding it (event.idx is the slice slot), so cancellation is
// O(1) swap-delete everywhere except the small drain front.
//
// Scheduling in the past is impossible (Engine.push checks), so every
// insert lands at or after the drain front and no bucket behind cur can
// ever be targeted.
//
// A rung covers its span of time once and is drained front to back, so
// neither it nor a bucket's backing array is ever refilled in place:
// drained arrays and exhausted rungs go to free lists (freeBkts,
// freeSegs) that file and newSeg draw from, which is what keeps
// steady-state filing and rung spawning off the allocator.
const (
	ladBuckets  = 256 // buckets per rung
	ladSpawnMin = 512 // bucket size that spawns a finer rung instead of heapifying
	// ladKeepCap bounds the capacity of a recycled bucket array. Only
	// over-dense buckets (the ones that spawn) outgrow it; keeping theirs
	// would, as arrays circulate, leave every bucket holding a peak-sized
	// array.
	ladKeepCap = 2 * ladSpawnMin
)

// ladTimeMax is the saturation point for rung spans: a rung whose
// nominal span would overflow the time axis clamps its limit here, and
// its last bucket absorbs the remainder.
const ladTimeMax = Time(math.MaxInt64)

// Checkpoints walk a ladder only to enumerate pending events; the rung
// geometry is physical layout that EngineState normalizes away and a
// restored engine regrows on its own.
type ladSeg struct {
	start Time     //ckpt:skip rung geometry, physical layout normalized away by EngineState
	width Duration //ckpt:skip bucket width, physical layout normalized away by EngineState
	cur   int      // next bucket to drain
	// limit is the rung's exclusive span end. It can be tighter than
	// start + width*ladBuckets (width rounds up), and drain boundaries
	// clamp to it: a spawned rung must never claim time past its
	// parent bucket's right edge, or its last bucket would interleave
	// out of order with the parent's next one.
	limit   Time //ckpt:skip rung geometry, physical layout normalized away by EngineState
	buckets [ladBuckets][]*event
}

type ladder struct {
	active    []*event // min-heap by eventLess; the drain front
	activeEnd Time     //ckpt:skip drain-front edge, physical layout normalized away by EngineState
	segs      []*ladSeg
	n         int //ckpt:skip derived count, physical layout normalized away by EngineState

	freeBkts [][]*event //ckpt:skip drained bucket arrays awaiting reuse: empty, every slot nil
	freeSegs []*ladSeg  //ckpt:skip exhausted rungs awaiting reuse: every bucket empty
}

// push files t into the tier its timestamp selects. O(1) except for
// active-heap inserts, which are O(log |active|) on a deliberately small
// heap, and the rare rung growth (bounded by the geometric rung count).
func (l *ladder) push(t *event) {
	l.n++
	at := t.at
	if at < l.activeEnd {
		t.bkt = nil
		t.idx = int32(len(l.active))
		//lint:ignore hotalloc active-heap growth is amortized to the peak drain-front size; the backing array is reused across refills
		l.active = append(l.active, t)
		siftUp(l.active, int(t.idx))
		return
	}
	for _, s := range l.segs {
		if at >= s.limit {
			continue
		}
		l.file(s, t)
		return
	}
	l.file(l.grow(at), t)
}

// file appends t to its bucket inside rung s (which must span t.at).
func (l *ladder) file(s *ladSeg, t *event) {
	at := t.at
	b := 0
	if at > s.start {
		b = int(int64(at-s.start) / int64(s.width))
	}
	// A saturated top rung's width rounds down; its last bucket absorbs
	// the span remainder.
	if b >= ladBuckets {
		b = ladBuckets - 1
	}
	// Events in the gap before a rung, or at the drained frontier,
	// clamp into the current bucket: they still sort after everything
	// in active (at ≥ activeEnd) and before every later bucket.
	if b < s.cur {
		b = s.cur
	}
	l.add(&s.buckets[b], t)
}

// add appends t to bucket bp, starting an empty bucket on a recycled
// array when one is free.
func (l *ladder) add(bp *[]*event, t *event) {
	if *bp == nil {
		if k := len(l.freeBkts) - 1; k >= 0 {
			*bp, l.freeBkts[k] = l.freeBkts[k], nil
			l.freeBkts = l.freeBkts[:k]
		}
	}
	t.bkt = bp
	t.idx = int32(len(*bp))
	//lint:ignore hotalloc a bucket starts on a recycled array (freeBkts) and grows past its capacity only while it beats the populations that array has held
	*bp = append(*bp, t)
}

// release returns a drained bucket's array to the free list. The caller
// has moved every event out; clearing the slots drops the stale
// references so a recycled array retains no event.
func (l *ladder) release(b []*event) {
	if cap(b) > ladKeepCap {
		return
	}
	clear(b)
	//lint:ignore hotalloc free-list growth is bounded by the peak number of simultaneously occupied buckets
	l.freeBkts = append(l.freeBkts, b[:0])
}

// newSeg returns an empty rung with the given geometry, reusing an
// exhausted one when available.
func (l *ladder) newSeg(start Time, width Duration, limit Time) *ladSeg {
	k := len(l.freeSegs) - 1
	if k < 0 {
		return &ladSeg{start: start, width: width, limit: limit}
	}
	s := l.freeSegs[k]
	l.freeSegs[k] = nil
	l.freeSegs = l.freeSegs[:k]
	s.start, s.width, s.limit, s.cur = start, width, limit, 0
	return s
}

// grow appends upper rungs — each ladBuckets× coarser than the last —
// until one spans at, and returns it. The first rung over an empty tail
// sizes its bucket width to the observed horizon (the self-sizing that
// makes the calendar robust to densities it was not tuned for); each
// additional rung widens geometrically, so covering any timestamp takes
// O(log_ladBuckets(span)) rungs total over the ladder's lifetime.
//
//lint:coldpath rung growth is geometrically bounded (O(log span) rungs ever); steady state never reaches it
func (l *ladder) grow(at Time) *ladSeg {
	base := l.activeEnd
	var width Duration
	if k := len(l.segs); k > 0 {
		last := l.segs[k-1]
		base = last.limit
		width = mulSat(last.width, ladBuckets)
	} else {
		width = Duration(int64(at-base)/ladBuckets) + 1
	}
	for {
		if width < 1 {
			width = 1
		}
		limit := spanEnd(base, width)
		s := l.newSeg(base, width, limit)
		l.segs = append(l.segs, s)
		if at < limit || limit == ladTimeMax {
			return s
		}
		base = limit
		width = mulSat(width, ladBuckets)
	}
}

// spanEnd returns base + width*ladBuckets saturated to ladTimeMax. When
// it saturates it also shrinks the caller's effective span arithmetic:
// the rung's width is recomputed so start + width*ladBuckets never
// overflows (the last bucket absorbs the remainder via file's clamp).
func spanEnd(base Time, width Duration) Time {
	span := int64(ladTimeMax - base)
	if int64(width) > span/ladBuckets {
		return ladTimeMax
	}
	return base.Add(width * ladBuckets)
}

// mulSat multiplies a bucket width by the rung fan-out, saturating
// instead of overflowing the time axis.
func mulSat(w Duration, k int64) Duration {
	if int64(w) > math.MaxInt64/k {
		return Duration(math.MaxInt64 / ladBuckets)
	}
	return w * Duration(k)
}

// min returns the earliest pending event without removing it, advancing
// the drain front over empty buckets as needed. Returns nil when empty.
func (l *ladder) min() *event {
	for len(l.active) == 0 {
		if !l.advance() {
			return nil
		}
	}
	return l.active[0]
}

// pop removes and returns the earliest pending event, or nil.
func (l *ladder) pop() *event {
	if l.min() == nil {
		return nil
	}
	l.n--
	return popRoot(&l.active)
}

// advance refills the empty active heap from the next non-empty bucket,
// spawning finer rungs for over-dense buckets on the way. Reports false
// when the whole ladder is empty.
func (l *ladder) advance() bool {
	for len(l.segs) > 0 {
		s := l.segs[0]
		for s.cur < ladBuckets && len(s.buckets[s.cur]) == 0 {
			s.cur++
		}
		if s.cur == ladBuckets {
			// Exhausted. Shift the rest down rather than reslicing past
			// it, so segs keeps its backing array (and spawn its room to
			// prepend); there are at most a handful of rungs.
			k := copy(l.segs, l.segs[1:])
			l.segs[k] = nil
			l.segs = l.segs[:k]
			//lint:ignore hotalloc free-list growth is bounded by the peak rung count
			l.freeSegs = append(l.freeSegs, s)
			continue
		}
		b := s.buckets[s.cur]
		bucketEnd := s.start.Add(Duration(int64(s.width) * int64(s.cur+1)))
		if bucketEnd > s.limit || bucketEnd < s.start {
			bucketEnd = s.limit
		}
		s.buckets[s.cur] = nil
		s.cur++
		if len(b) > ladSpawnMin && s.width > 1 {
			l.spawn(b, bucketEnd)
			l.release(b)
			continue
		}
		l.fill(b, bucketEnd)
		l.release(b)
		return true
	}
	return false
}

// fill moves one drained bucket into the active heap (4-ary heapify,
// O(len)) and advances the drain boundary to the bucket's right edge.
func (l *ladder) fill(b []*event, end Time) {
	//lint:ignore hotalloc append onto l.active[:0] reuses the heap's backing array; it grows only when a bucket beats the historical peak
	l.active = append(l.active[:0], b...)
	for i, ev := range l.active {
		ev.bkt = nil
		ev.idx = int32(i)
	}
	for i := (len(l.active) - 2) >> 2; i >= 0; i-- {
		siftDown(l.active, i)
	}
	l.activeEnd = end
}

// spawn re-buckets one over-dense bucket into a finer rung prepended
// to the ladder — the rung-spawning step that bounds per-drain work. The
// new rung starts at the bucket's earliest event (not its nominal left
// edge: gap-clamped strays can sit before it, and not the drain boundary:
// a cluster far past it would keep the span — and so the child's bucket
// width — from ever tightening, spawning forever). Anchoring at the true
// minimum shrinks the span to at most the parent's bucket width, so
// resolution improves ~ladBuckets-fold per rung and the recursion
// terminates.
//
//lint:coldpath rung spawning fires only on over-dense buckets (> ladSpawnMin) and its cost is amortized across the events it re-buckets
func (l *ladder) spawn(b []*event, end Time) {
	start := b[0].at
	for _, ev := range b[1:] {
		if ev.at < start {
			start = ev.at
		}
	}
	span := int64(end - start)
	width := (span + ladBuckets - 1) / ladBuckets
	if width < 1 {
		width = 1
	}
	s := l.newSeg(start, Duration(width), end)
	for _, ev := range b {
		l.add(&s.buckets[int64(ev.at-start)/width], ev)
	}
	l.segs = append(l.segs, nil)
	copy(l.segs[1:], l.segs)
	l.segs[0] = s
}

// remove deletes a queued event (cancellation): heap-remove from the
// drain front, O(1) swap-delete from a bucket.
func (l *ladder) remove(t *event) {
	l.n--
	if t.bkt == nil {
		heapRemove(&l.active, t)
		return
	}
	q := *t.bkt
	i := int(t.idx)
	nn := len(q) - 1
	last := q[nn]
	q[nn] = nil
	if i != nn {
		q[i] = last
		last.idx = int32(i)
	}
	*t.bkt = q[:nn]
}
