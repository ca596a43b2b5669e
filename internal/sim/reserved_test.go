package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// lazyUnit is one serializer in the reserved-key property test: the
// smallest thing with an outPort's shape. Work arrives (kick), is started
// one item at a time, and each start has a completion a fixed delay later
// that starts the next item if one is waiting and otherwise does nothing.
// The eager variant schedules every completion with AfterFunc; the lazy
// one reserves the completion's key and materialises it on demand.
type lazyUnit struct {
	waiting int
	busy    bool
	until   Time
	seq     uint64
	armed   bool
}

// reservedRun is what one random program left behind: the trace of
// everything that did work — kicks and starts, each stamped with the key
// of the event it ran in — the engine's final sequence counter and event
// total, and what the engine looked like from outside along the way: the
// key of every executed event, Pending and NextAt after each driver
// action, and the captured pending set at random points.
type reservedRun struct {
	trace       []string
	seq, events uint64
	journal     []EventRecord
	probes      []string
	laneEvents  int // schedules that went through a Lane
}

// runReservedProgram executes one random program. The rng is consumed only
// inside traced steps, so two runs that execute them in the same order
// draw the same program. With lanes set, a random subset of the schedules
// whose delay is one of the small constants goes through Lane.After /
// Lane.Arrive instead of AfterFunc / ScheduleArrival, and a random subset
// of its timeline — absolute times that never decrease, as a trace's
// arrivals — through Lane.At instead of ScheduleFunc; which ones is drawn
// from a stream of its own, so the program does not change.
func runReservedProgram(lazy, lanes bool, seed int64) reservedRun {
	var out reservedRun
	e := NewEngine(1)
	rng := rand.New(rand.NewSource(seed))
	units := make([]lazyUnit, 6)
	budget := 1500

	// One lane per constant delay, created either way so that an engine
	// with idle lanes is covered too.
	const laneDelays = 4
	var lane [laneDelays]*Lane
	for d := range lane {
		lane[d] = e.NewLane(Duration(d))
	}
	pick := rand.New(rand.NewSource(seed ^ 0x1a9e))
	viaLane := func(d Duration) bool {
		if !lanes || d >= laneDelays || pick.Intn(3) == 0 {
			return false
		}
		out.laneEvents++
		return true
	}
	after := func(d Duration, fn func(a, b any, i int), u int) {
		if viaLane(d) {
			lane[d].After(fn, nil, nil, u)
		} else {
			e.AfterFunc(d, fn, nil, nil, u)
		}
	}
	arrive := func(d Duration, key uint64, fn func(a, b any, i int), u int) {
		if viaLane(d) {
			lane[d].Arrive(key, fn, nil, nil, u)
		} else {
			e.ScheduleArrival(e.now.Add(d), key, fn, nil, nil, u)
		}
	}
	timeLane := e.NewTimeLane(0)
	var last Time // the timeline's latest instant
	timeline := func(d Duration, fn func(a, b any, i int), u int) {
		last = max(last, e.now).Add(d)
		if lanes && pick.Intn(3) != 0 {
			out.laneEvents++
			timeLane.At(last, fn, nil, nil, u)
		} else {
			e.ScheduleFunc(last, fn, nil, nil, u)
		}
	}

	// Delays cluster on a few small values so completions, kicks and
	// arrivals collide on the same instant all the time, with an
	// occasional long one so the heap holds far-future keys too.
	delay := func() Duration {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return Duration(50_000 + rng.Intn(5_000_000))
		default:
			return Duration(rng.Intn(4))
		}
	}
	log := func(what string, u int) {
		out.trace = append(out.trace, fmt.Sprintf("%d/%#x %s%d", e.now, e.ord-1, what, u))
	}

	var try, done, kick func(a, b any, u int)
	try = func(_, _ any, u int) {
		s := &units[u]
		if s.busy {
			if lazy {
				if !e.Passed(s.until, s.seq) {
					if !s.armed && s.waiting > 0 {
						s.armed = true
						e.ScheduleReserved(s.until, s.seq, done, nil, nil, u)
					}
					return
				}
				s.busy = false
			} else {
				return
			}
		}
		if s.waiting == 0 {
			return
		}
		s.waiting--
		s.busy = true
		log("start", u)
		d := delay()
		if rng.Intn(3) == 0 {
			// Something else scheduled between the start and its
			// completion, as a port's PFC release is.
			after(delay(), kick, rng.Intn(len(units)))
		}
		if lazy {
			s.until, s.seq = e.now.Add(d), e.ReserveSeq()
			if s.waiting > 0 {
				s.armed = true
				e.ScheduleReserved(s.until, s.seq, done, nil, nil, u)
			}
		} else {
			after(d, done, u)
		}
	}
	done = func(_, _ any, u int) {
		units[u].busy, units[u].armed = false, false
		try(nil, nil, u)
	}
	kick = func(_, _ any, u int) {
		log("kick", u)
		units[u].waiting++
		try(nil, nil, u)
		for n := 1 + rng.Intn(2); n > 0 && budget > 0; n-- {
			budget--
			v := rng.Intn(len(units))
			switch rng.Intn(8) {
			case 0, 1:
				arrive(delay(), uint64(budget), kick, v)
			case 2:
				timeline(delay(), kick, v)
			default:
				after(delay(), kick, v)
			}
		}
	}

	for u := range units {
		after(delay(), kick, u)
		timeline(delay(), kick, u)
	}
	// Interleave bounded runs with single steps and idle skips so that
	// execution resumes from the position each of them leaves. The driver
	// draws from its own stream: the eager and lazy variants execute
	// different numbers of events.
	e.StartJournal()
	drv := rand.New(rand.NewSource(seed ^ 0x5eed))
	for e.Pending() > 0 {
		switch drv.Intn(5) {
		case 0, 1:
			e.Run(e.now.Add(Duration(drv.Intn(3))))
		case 2:
			if at, ok := e.NextAt(); ok && at > e.now {
				e.SkipTo(at - 1)
			}
		default:
			e.Step()
		}
		at, ok := e.NextAt()
		out.probes = append(out.probes, fmt.Sprintf("pending %d next %d %v", e.Pending(), at, ok))
		if drv.Intn(16) == 0 {
			out.probes = append(out.probes, fmt.Sprint(e.CaptureState().Pending))
		}
	}
	out.journal = e.TakeJournal()
	out.seq, out.events = e.seq, e.nEvent
	return out
}

// TestReservedSeqEquivalence is the property behind lazy completions: a
// program run with eager no-op-unless-needed completions and run again
// with ReserveSeq + on-demand ScheduleReserved does its work in the
// identical (time, seq) order — same-instant inserts and arrival-band
// events included — allocates the identical sequence numbers, and executes
// fewer events.
func TestReservedSeqEquivalence(t *testing.T) {
	saved := false
	for seed := int64(1); seed <= 40; seed++ {
		eager := runReservedProgram(false, false, seed)
		lazy := runReservedProgram(true, false, seed)
		want, wantSeq, wantEv := eager.trace, eager.seq, eager.events
		got, gotSeq, gotEv := lazy.trace, lazy.seq, lazy.events
		if len(want) < 1000 {
			t.Fatalf("seed %d: program too short to mean anything (%d steps)", seed, len(want))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: eager did %d steps, lazy %d", seed, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: step %d: eager %s, lazy %s", seed, i, want[i], got[i])
			}
		}
		if gotSeq != wantSeq {
			t.Fatalf("seed %d: eager allocated %d seqs, lazy %d", seed, wantSeq, gotSeq)
		}
		if gotEv > wantEv {
			t.Fatalf("seed %d: lazy ran %d events, eager %d", seed, gotEv, wantEv)
		}
		saved = saved || gotEv < wantEv
	}
	if !saved {
		t.Errorf("no program elided a single completion")
	}
}

// TestScheduleReservedOrderGuard: a reserved key may be inserted late but
// never at or behind the executing event, and Passed agrees with that
// boundary — including the arrival band and the position Run leaves.
func TestScheduleReservedOrderGuard(t *testing.T) {
	e := NewEngine(1)
	nop := func(_, _ any, _ int) {}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}

	before := e.ReserveSeq()
	own := e.ReserveSeq()
	after := e.ReserveSeq()
	ran := 0
	e.ScheduleReserved(5, own, func(_, _ any, _ int) {
		ran++
		if !e.Passed(5, before) || e.Passed(5, own) || e.Passed(5, after) || !e.Passed(4, after) || e.Passed(6, before) {
			t.Errorf("Passed disagrees with the executing key (5, %d)", own)
		}
		mustPanic("a key before the executing event", func() { e.ScheduleReserved(5, before, nop, nil, nil, 0) })
		mustPanic("the executing event's own key", func() { e.ScheduleReserved(5, own, nop, nil, nil, 0) })
		mustPanic("a key at an earlier instant", func() { e.ScheduleReserved(4, after, nop, nil, nil, 0) })
		e.ScheduleReserved(5, after, func(_, _ any, _ int) { ran++ }, nil, nil, 0)
	}, nil, nil, 0)
	// An arrival-band event sorts after every band-0 key of its instant.
	late := e.ReserveSeq()
	e.ScheduleArrival(5, 1, func(_, _ any, _ int) {
		ran++
		if !e.Passed(5, late) {
			t.Errorf("band-0 key not passed inside an arrival of the same instant")
		}
		mustPanic("a band-0 key behind an executing arrival", func() { e.ScheduleReserved(5, late, nop, nil, nil, 0) })
	}, nil, nil, 0)
	e.Run(4)
	if e.Passed(5, before) || !e.Passed(4, after) {
		t.Errorf("after Run(4) every key at 4 has passed and none at 5")
	}
	e.Run(5)
	if ran != 3 {
		t.Fatalf("ran %d of 3 events", ran)
	}
	horizon := e.ReserveSeq()
	if !e.Passed(5, horizon) {
		t.Errorf("after Run(5) a key at 5 reserved later still counts as passed")
	}
	mustPanic("a key at the horizon Run returned from", func() { e.ScheduleReserved(5, horizon, nop, nil, nil, 0) })
}
