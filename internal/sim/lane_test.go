package sim

import (
	"fmt"
	"testing"
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
// lane lets its ring go.
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
	if len(tl.buf) != laneMinSlots {
		t.Errorf("a time lane sized for 3 records has %d slots, want %d", len(tl.buf), laneMinSlots)
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
	if tl.buf != nil {
		t.Errorf("a drained time lane still holds its %d-slot ring", len(tl.buf))
	}
	mustPanic("AtReserved before the clock", func() { tl.AtReserved(8, e.ReserveSeq(), rec, nil, nil, 9) })
	tl.AtReserved(9, e.ReserveSeq(), rec, nil, nil, 6) // the clock's own instant is not the past
	e.RunAll()
	if got[len(got)-1] != 6 {
		t.Errorf("a time lane refilled after draining did not run its record")
	}
}

// TestLaneRingGrowth: a lane that outgrows its ring while the head sits
// mid-ring keeps FIFO order, and a drained lane holds on to nothing it
// was given.
func TestLaneRingGrowth(t *testing.T) {
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
		}
	}
	put(laneMinSlots - 2)
	e.Run(100) // drain: head now sits near the end of the ring
	put(5 * laneMinSlots)
	e.Run(150)
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
	for i := range l.buf {
		if r := l.buf[i]; r.fn != nil || r.a != nil || r.b != nil {
			t.Fatalf("slot %d still references its callback or arguments after the pop", i)
		}
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
