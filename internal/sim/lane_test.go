package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

// TestLaneEquivalence is the property behind lanes: where an event is
// stored is invisible. A random program that routes a random subset of its
// constant-delay schedules through Lane.After / Lane.Arrive, and of its
// non-decreasing absolute-time schedules through Lane.AtReserved,
// executes the identical (time, seq) sequence, allocates the identical
// sequence numbers, and shows the identical Pending, NextAt and captured
// pending set after every driver action — Run, Step and SkipTo
// interleaved — as the same program with every event in the heap, with
// eager and lazy completions.
func TestLaneEquivalence(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		for seed := int64(1); seed <= 20; seed++ {
			name := fmt.Sprintf("lazy=%v seed %d", lazy, seed)
			want := runReservedProgram(lazy, false, seed)
			got := runReservedProgram(lazy, true, seed)
			if want.laneEvents != 0 || got.laneEvents < len(got.journal)/5 {
				t.Fatalf("%s: %d of %d events went through lanes (%d in the all-queue run)",
					name, got.laneEvents, len(got.journal), want.laneEvents)
			}
			if len(got.journal) != len(want.journal) {
				t.Fatalf("%s: queues ran %d events, lanes %d", name, len(want.journal), len(got.journal))
			}
			for i := range want.journal {
				if got.journal[i] != want.journal[i] {
					t.Fatalf("%s: event %d: queues %+v, lanes %+v", name, i, want.journal[i], got.journal[i])
				}
			}
			for i := range want.trace {
				if got.trace[i] != want.trace[i] {
					t.Fatalf("%s: step %d: queues %s, lanes %s", name, i, want.trace[i], got.trace[i])
				}
			}
			if got.seq != want.seq || got.events != want.events {
				t.Fatalf("%s: queues ended at seq %d after %d events, lanes at %d after %d",
					name, want.seq, want.events, got.seq, got.events)
			}
			if len(got.probes) != len(want.probes) {
				t.Fatalf("%s: queues took %d driver actions, lanes %d", name, len(want.probes), len(got.probes))
			}
			for i := range want.probes {
				if got.probes[i] != want.probes[i] {
					t.Fatalf("%s: probe %d:\nqueues %s\nlanes  %s", name, i, want.probes[i], got.probes[i])
				}
			}
		}
	}
}

// TestLaneTieOrder: among records of one picosecond a lane runs band 0
// before the arrival band and arrivals in ascending key order, whatever
// order they were scheduled in; records of different instants are never
// reordered.
func TestLaneTieOrder(t *testing.T) {
	e := NewEngine(1)
	l := e.NewLane(10)
	var got []int
	rec := func(_, _ any, i int) { got = append(got, i) }

	// t=0: arrivals in descending key order around two band-0 events.
	l.Arrive(9, rec, nil, nil, 5)
	l.After(rec, nil, nil, 1)
	l.Arrive(7, rec, nil, nil, 4)
	l.Arrive(3, rec, nil, nil, 3)
	l.After(rec, nil, nil, 2)
	// A queued event of the same instant merges by the same keys.
	e.ScheduleArrival(10, 8, rec, nil, nil, 45)
	e.AfterFunc(10, rec, nil, nil, 25)
	// t=1: a smaller key at a later instant stays behind all of t=0.
	e.Run(1)
	l.Arrive(1, rec, nil, nil, 7)
	l.After(rec, nil, nil, 6)

	if n := e.Pending(); n != 9 {
		t.Fatalf("Pending() = %d, want 9", n)
	}
	if at, ok := e.NextAt(); !ok || at != 10 {
		t.Fatalf("NextAt() = %d, %v, want 10", at, ok)
	}
	e.RunAll()
	want := []int{1, 2, 25, 3, 4, 45, 5, 6, 7}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ran %v, want %v", got, want)
	}
	if e.Pending() != 0 || e.Now() != 11 {
		t.Errorf("drained to pending %d at %d, want 0 at 11", e.Pending(), e.Now())
	}
}

// TestLaneAtOrder: a time lane takes records in key order only — a
// record behind its tail panics, at an earlier instant or under a smaller
// reserved seq of the same one — and never from the clock's past; a lane
// is filled by delay or by AtReserved, never both. Keys reserved in one
// order and handed over in another run in key order, and a drained time
// lane holds no block.
func TestLaneAtOrder(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	e := NewEngine(1)
	var got []int
	rec := func(_, _ any, i int) { got = append(got, i) }
	tl := e.NewTimeLane(3)
	if tl.spare == nil || tl.spare.next != nil {
		t.Errorf("a time lane for 3 records does not hold exactly one block to fill")
	}

	s0, s1, s2 := e.ReserveSeq(), e.ReserveSeq(), e.ReserveSeq()
	// Reserved in the order 0, 1, 2 and handed over by key: (5, s1) first.
	tl.AtReserved(5, s1, rec, nil, nil, 1)
	tl.AtReserved(7, s0, rec, nil, nil, 0)
	tl.AtReserved(7, s2, rec, nil, nil, 2)
	mustPanic("a smaller seq at the tail's instant", func() { tl.AtReserved(7, s1, rec, nil, nil, 9) })
	mustPanic("an instant before the tail's", func() { tl.AtReserved(6, e.ReserveSeq(), rec, nil, nil, 9) })
	tl.AtReserved(7, e.ReserveSeq(), rec, nil, nil, 3) // same instant, fresh seq: follows the tail
	tl.AtReserved(9, e.ReserveSeq(), rec, nil, nil, 4)
	mustPanic("After on a time lane", func() { tl.After(rec, nil, nil, 9) })
	mustPanic("Arrive on a time lane", func() { tl.Arrive(1, rec, nil, nil, 9) })
	mustPanic("AtReserved on a delay lane", func() { e.NewLane(2).AtReserved(10, e.ReserveSeq(), rec, nil, nil, 9) })
	e.AfterFunc(7, rec, nil, nil, 5) // (7, a seq after every record above)

	e.RunAll()
	if want := []int{1, 0, 2, 3, 5, 4}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ran %v, want %v", got, want)
	}
	if tl.head != nil || tl.tail != nil || tl.spare != nil {
		t.Errorf("a drained time lane still holds a block")
	}
	mustPanic("AtReserved before the clock", func() { tl.AtReserved(8, e.ReserveSeq(), rec, nil, nil, 9) })
	tl.AtReserved(9, e.ReserveSeq(), rec, nil, nil, 6) // the clock's own instant is not the past
	e.RunAll()
	if got[len(got)-1] != 6 {
		t.Errorf("a time lane refilled after draining did not run its record")
	}
}

// TestLaneLayout: a Lane fits one cache line, so scheduling on it and
// draining it touch one line of the lane besides its blocks; 72 bytes
// would put it in the allocator's 80-byte class, astride two.
func TestLaneLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout is pinned for 64-bit platforms")
	}
	if n := unsafe.Sizeof(Lane{}); n != 64 {
		t.Errorf("Lane is %d bytes, want 64", n)
	}
}

// TestLaneBlocksFIFO: a lane that runs over several blocks while its head
// sits mid-block keeps FIFO order, every popped slot is cleared, and a
// drained lane holds on to nothing it was given: its blocks are back in
// the engine's pool, empty.
func TestLaneBlocksFIFO(t *testing.T) {
	e := NewEngine(1)
	l := e.NewLane(100)
	var got []int
	rec := func(_, _ any, i int) { got = append(got, i) }
	arg := new(int)
	next := 0
	put := func(n int) {
		for ; n > 0; n-- {
			l.After(rec, arg, arg, next)
			next++
			e.Run(e.Now().Add(1))
		}
	}
	put(laneBlockRecs - 2)
	e.Run(100 + laneBlockRecs/2) // half the first block has run
	put(5 * laneBlockRecs)       // the head stays mid-block as the tail crosses four edges
	if l.hi == 0 || l.head == l.tail {
		t.Fatalf("head at slot %d of a lane spanning one block: the test no longer straddles an edge", l.hi)
	}
	requireCleared(t, "a head block", l.head.recs[:l.hi])
	e.Run(e.Now().Add(150))
	put(3)
	e.RunAll()
	if len(got) != next {
		t.Fatalf("ran %d of %d events", len(got), next)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d ran in position %d", v, i)
		}
	}
	if l.head != nil || l.tail != nil || l.n != 0 {
		t.Fatalf("a drained lane still holds blocks (%d records)", l.n)
	}
	if pooled(e) == 0 {
		t.Fatal("the engine's pool is empty after a lane of several blocks drained")
	}
	for b := e.blocks; b != nil; b = b.next {
		requireCleared(t, "a pooled block", b.recs[:])
		if b.prev != nil {
			t.Fatal("a pooled block still links to a block behind it")
		}
	}
}

// requireCleared fails unless every record holds no key, callback or
// argument.
func requireCleared(t *testing.T, what string, recs []laneRec) {
	t.Helper()
	for i, r := range recs {
		if r.fn != nil || r.a != nil || r.b != nil || r.at != 0 || r.seq != 0 || r.i != 0 {
			t.Fatalf("%s: slot %d still holds a popped record", what, i)
		}
	}
}

// pooled counts the blocks in engine e's pool.
func pooled(e *Engine) int {
	n := 0
	for b := e.blocks; b != nil; b = b.next {
		n++
	}
	return n
}

// heldBlocks counts the lane blocks engine e holds: those linked into its
// lanes and those in its pool.
func heldBlocks(e *Engine) int {
	n := pooled(e)
	for _, l := range e.lanes {
		for b := l.head; b != nil; b = b.next {
			n++
		}
	}
	return n
}

// TestLaneBlocksPooled: lanes of one engine share its pool. Two lanes
// take turns filling to n records and draining, so the engine never holds
// more than the blocks n records need plus two per lane, and once warm
// the turns allocate nothing. Each fill runs arrivals of one instant in
// descending key order across block edges, so every record walks back
// past those of its instant, over an edge where they straddle one. A
// time lane that drains holds no block and leaves the pool as it found
// it: its blocks are its own.
func TestLaneBlocksPooled(t *testing.T) {
	const n, tie = 3*laneBlockRecs + 5, 7 // records per fill; records per instant
	e := NewEngine(1)
	la, lb := e.NewLane(10), e.NewLane(3)
	got := make([]int, 0, n)
	rec := func(_, _ any, i int) { got = append(got, i) }
	bound := (n+laneBlockRecs-1)/laneBlockRecs + 2*len(e.lanes)
	ok := true
	turn := func(l *Lane) {
		got = got[:0]
		for j := 0; j < n; j++ {
			if j%tie == 0 {
				e.Run(e.Now().Add(1))
			}
			l.Arrive(uint64(n-j), rec, nil, nil, j)
		}
		if heldBlocks(e) > bound {
			ok = false
		}
		e.Run(e.Now().Add(20))
		for j := range got {
			// Within an instant the largest j has the least key and runs first.
			group := j / tie * tie
			if want := group + min(tie, n-group) - 1 - (j - group); got[j] != want {
				ok = false
			}
		}
		if len(got) != n {
			ok = false
		}
	}
	for range 3 {
		turn(la)
		turn(lb)
	}
	if !ok {
		t.Fatalf("a turn ran out of order, lost records or held more than %d blocks", bound)
	}
	if allocs := testing.AllocsPerRun(20, func() { turn(la); turn(lb) }); allocs != 0 {
		t.Errorf("a warm turn on each lane allocates %.1f times, want 0", allocs)
	}
	if !ok {
		t.Errorf("a warm turn ran out of order, lost records or held more than %d blocks", bound)
	}

	before := pooled(e)
	tl := e.NewTimeLane(n)
	for j := 0; j < n; j++ {
		tl.AtReserved(e.Now().Add(Duration(j)), e.ReserveSeq(), rec, nil, nil, j)
	}
	e.RunAll()
	if tl.head != nil || tl.tail != nil || tl.spare != nil {
		t.Error("a drained time lane still holds a block")
	}
	if after := pooled(e); after != before {
		t.Errorf("the pool held %d blocks before a time lane of %d records ran and %d after, want no change", before, n, after)
	}
}

// TestLaneCaptureState: a capture lists lane records with the queues'
// records, in the order the engine goes on to execute them.
func TestLaneCaptureState(t *testing.T) {
	e := NewEngine(3)
	la, lb := e.NewLane(40), e.NewLane(7)
	nop := func(_, _ any, _ int) {}
	for i := 0; i < 50; i++ {
		la.After(nop, nil, nil, 0)
		lb.Arrive(uint64(100-i), nop, nil, nil, 0)
		e.AfterFunc(Duration(i%9), nop, nil, nil, 0)
		if i%10 == 9 {
			e.Run(e.Now().Add(3))
		}
	}
	if la.n == 0 || lb.n == 0 {
		t.Fatalf("test left a lane empty (%d, %d)", la.n, lb.n)
	}
	requireDrainsAsCaptured(t, e)
}

// TestLaneGroupDispatch: a shard whose only pending event sits in a lane
// has work inside the window — the group must dispatch it, not idle-skip
// its clock past the event.
func TestLaneGroupDispatch(t *testing.T) {
	underWatchdog(t, groupWatchdog, func() {
		e0, e1 := NewEngine(1), NewEngine(1)
		g := NewGroup([]*Engine{e0, e1})
		ranAt := Time(-1)
		e1.NewLane(5).After(func(_, _ any, _ int) { ranAt = e1.Now() }, nil, nil, 0)
		if at, ok := g.NextAt(); !ok || at != 5 {
			t.Errorf("group NextAt() = %d, %v, want 5", at, ok)
		}
		g.RunEpoch(10)
		g.Close()
		if ranAt != 5 {
			t.Errorf("lane event ran at %d, want 5", ranAt)
		}
		if g.Dispatched(1) != 1 || g.Skipped(1) != 0 {
			t.Errorf("shard 1 dispatched %d, skipped %d, want 1, 0", g.Dispatched(1), g.Skipped(1))
		}
	})
}
