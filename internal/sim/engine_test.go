package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeArithmetic(t *testing.T) {
	tm := Time(0).Add(5 * Microsecond)
	if tm != Time(5_000_000) {
		t.Fatalf("5us = %d ps, want 5e6", tm)
	}
	if d := tm.Sub(Time(1_000_000)); d != 4*Microsecond {
		t.Fatalf("Sub = %v, want 4us", d)
	}
	if s := (2 * Second).Seconds(); s != 2 {
		t.Fatalf("Seconds = %v", s)
	}
	if us := Time(1500).Microseconds(); us != 0.0015 {
		t.Fatalf("Microseconds = %v", us)
	}
}

func TestTransmissionTime(t *testing.T) {
	// 1500 bytes at 100 Gbps = 120 ns.
	if d := TransmissionTime(1500, 100e9); d != 120*Nanosecond {
		t.Fatalf("1500B@100G = %v, want 120ns", d)
	}
	// 64 bytes at 400 Gbps = 1.28 ns = 1280 ps.
	if d := TransmissionTime(64, 400e9); d != 1280*Picosecond {
		t.Fatalf("64B@400G = %v, want 1.28ns", d)
	}
}

func TestDurationScale(t *testing.T) {
	if d := (10 * Microsecond).Scale(1.3); d != 13*Microsecond {
		t.Fatalf("Scale(1.3) = %v, want 13us", d)
	}
	if d := (3 * Picosecond).Scale(0.5); d != 2*Picosecond { // rounds up at .5
		t.Fatalf("Scale rounding = %v, want 2ps", d)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order = %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(50, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: got[%d] = %d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.Schedule(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
		// Same-time event scheduled from within an event still runs.
		e.After(0, func() { fired = append(fired, e.Now()) })
	})
	e.RunAll()
	want := []Time{10, 10, 15}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	tm := e.Schedule(10, func() { ran = true })
	if !tm.Active() {
		t.Fatal("Active() = false for a scheduled timer")
	}
	tm.Cancel()
	if tm.Active() {
		t.Fatal("Active() = true after Cancel")
	}
	tm.Cancel() // double cancel is a no-op
	e.RunAll()
	if ran {
		t.Fatal("cancelled event ran")
	}
	if e.Events() != 0 {
		t.Fatalf("Events = %d, want 0", e.Events())
	}
}

// Regression test for the lazy-cancel leak: cancelled timers used to stay
// in the heap until popped, so Pending() overcounted and long-lived runs
// with many cancellations (RTO timers, token loops) accumulated dead
// entries. Cancel must remove the event immediately.
func TestEngineCancelRemovesFromQueue(t *testing.T) {
	e := NewEngine(1)
	timers := make([]Timer, 1000)
	for i := range timers {
		timers[i] = e.Schedule(Time(10+i), func() {})
	}
	if e.Pending() != 1000 {
		t.Fatalf("Pending = %d, want 1000", e.Pending())
	}
	for i, tm := range timers {
		if i%2 == 0 {
			tm.Cancel()
		}
	}
	if e.Pending() != 500 {
		t.Fatalf("Pending = %d after cancelling half, want 500", e.Pending())
	}
	ran := 0
	e.Schedule(5000, func() { ran = e.Pending() })
	e.RunAll()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
	_ = ran
}

// A handle to a fired timer must stay inert even after the engine recycles
// the event for a new timer: cancelling through the stale handle must not
// cancel the new occupant.
func TestEngineStaleHandleSafety(t *testing.T) {
	e := NewEngine(1)
	fired := false
	stale := e.Schedule(10, func() {})
	e.RunAll() // fires; event returns to the free list
	if stale.Active() {
		t.Fatal("handle still active after fire")
	}
	fresh := e.Schedule(20, func() { fired = true }) // reuses the event
	stale.Cancel()                                   // must be a no-op
	if !fresh.Active() {
		t.Fatal("stale Cancel deactivated a recycled timer")
	}
	if stale.At() != 0 {
		t.Fatalf("stale At() = %v, want 0", stale.At())
	}
	e.RunAll()
	if !fired {
		t.Fatal("recycled timer did not fire after stale Cancel")
	}
}

func TestTimerAt(t *testing.T) {
	e := NewEngine(1)
	tm := e.Schedule(42, func() {})
	if tm.At() != 42 {
		t.Fatalf("At = %v, want 42", tm.At())
	}
	var zero Timer
	zero.Cancel() // zero handle is inert
	if zero.Active() {
		t.Fatal("zero Timer is active")
	}
}

// The free list must not leak behavior between reuses: schedule/fire in a
// loop and verify ordering still holds with recycled events.
func TestEngineFreeListReuse(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for round := 0; round < 3; round++ {
		round := round
		for i := 0; i < 50; i++ {
			i := i
			e.Schedule(e.Now().Add(Duration(1+i)), func() { order = append(order, round*50+i) })
		}
		e.RunAll()
	}
	if len(order) != 150 {
		t.Fatalf("ran %d events, want 150", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
}

func TestAfterFunc(t *testing.T) {
	e := NewEngine(1)
	type box struct{ n int }
	bx := &box{}
	e.AfterFunc(5, func(a, b any, i int) {
		a.(*box).n = i
		if b != nil {
			t.Error("b leaked")
		}
	}, bx, nil, 7)
	e.RunAll()
	if bx.n != 7 {
		t.Fatalf("AfterFunc arg = %d, want 7", bx.n)
	}
}

func TestScheduleFunc(t *testing.T) {
	e := NewEngine(1)
	var order []int
	rec := func(_, _ any, i int) { order = append(order, i) }
	// Absolute times, deliberately scheduled out of order; same-time events
	// keep scheduling order (FIFO tie-break), like Schedule.
	e.ScheduleFunc(30, rec, nil, nil, 3)
	e.ScheduleFunc(10, rec, nil, nil, 1)
	e.ScheduleFunc(30, rec, nil, nil, 4)
	tm := e.ScheduleFunc(20, rec, nil, nil, 2)
	if !tm.Active() || tm.At() != 20 {
		t.Fatalf("timer at %v active=%v, want 20/true", tm.At(), tm.Active())
	}
	e.RunAll()
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestScheduleFuncPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(50, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleFunc in the past did not panic")
		}
	}()
	e.ScheduleFunc(10, func(_, _ any, _ int) {}, nil, nil, 0)
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	e.Schedule(10, func() { got = append(got, e.Now()) })
	e.Schedule(20, func() { got = append(got, e.Now()) })
	e.Schedule(30, func() { got = append(got, e.Now()) })
	e.Run(20)
	if len(got) != 2 {
		t.Fatalf("ran %d events, want 2 (event at horizon inclusive)", len(got))
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
	e.Run(100)
	if len(got) != 3 {
		t.Fatalf("ran %d events after extending horizon, want 3", len(got))
	}
	// Clock advances to the horizon even with an empty queue.
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.RunAll()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var trace []int64
		var step func()
		step = func() {
			trace = append(trace, int64(e.Now()), e.rng.Int63n(1000))
			if len(trace) < 200 {
				e.After(Duration(1+e.rng.Int63n(50)), step)
			}
		}
		e.After(1, step)
		e.RunAll()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("determinism: different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism: traces diverge at %d", i)
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// Property: for any multiset of scheduling times, events execute in sorted
// order and the engine clock never moves backwards.
func TestEngineSortedExecutionProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		e := NewEngine(7)
		times := make([]Time, len(raw))
		for i, r := range raw {
			times[i] = Time(r % 1_000_000)
		}
		var executed []Time
		for _, at := range times {
			at := at
			e.Schedule(at, func() { executed = append(executed, at) })
		}
		e.RunAll()
		if len(executed) != len(times) {
			return false
		}
		sorted := append([]Time(nil), times...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range sorted {
			if executed[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset of timers runs exactly the others.
func TestEngineCancelSubsetProperty(t *testing.T) {
	f := func(raw []uint16, mask uint64) bool {
		e := NewEngine(3)
		want := 0
		ran := 0
		for i, r := range raw {
			tm := e.Schedule(Time(r), func() { ran++ })
			if mask>>(uint(i)%64)&1 == 1 {
				tm.Cancel()
			} else {
				want++
			}
		}
		e.RunAll()
		return ran == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineFreeListCap verifies the free-list bound: after a burst far
// above maxFreeEvents drains, the engine retains at most maxFreeEvents
// recycled events and drops the rest for the GC.
func TestEngineFreeListCap(t *testing.T) {
	old := maxFreeEvents
	maxFreeEvents = 64
	defer func() { maxFreeEvents = old }()

	e := NewEngine(1)
	for i := 0; i < 1000; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.RunAll()
	if e.freeN > 64 {
		t.Fatalf("free list holds %d events, cap is 64", e.freeN)
	}
	n := 0
	for ev := e.free; ev != nil; ev = ev.next {
		n++
	}
	if n != e.freeN {
		t.Fatalf("free list length %d, counter says %d", n, e.freeN)
	}
}

// queueOp is one step of a randomized schedule: either a new event (band 0
// via After, band 1 via ScheduleArrival) or the cancellation of an earlier
// band-0 event.
type queueOp struct {
	cancel  bool
	victim  int // index into the timer list when cancel
	arrival bool
	delay   Duration
	key     uint64
	tag     int
}

// runSchedule replays ops on an engine, interleaving execution (Step
// bursts after the ops listed in steps) with scheduling so inserts land
// behind, at and ahead of the drain front. It returns the execution order
// as "at/tag" strings.
func runSchedule(ops []queueOp, steps []int) []string {
	e := NewEngine(7)
	var order []string
	log := func(_, _ any, tag int) { order = append(order, fmt.Sprintf("%d/%d", e.Now(), tag)) }
	var timers []Timer
	si := 0
	for i, o := range ops {
		switch {
		case o.cancel:
			if len(timers) > 0 {
				timers[o.victim%len(timers)].Cancel()
			}
		case o.arrival:
			e.ScheduleArrival(e.Now().Add(o.delay), o.key, log, nil, nil, o.tag)
		default:
			timers = append(timers, e.AfterFunc(o.delay, log, nil, nil, o.tag))
		}
		if si < len(steps) && steps[si] == i {
			si++
			for k := 0; k < 3; k++ {
				e.Step()
			}
		}
	}
	e.RunAll()
	return order
}

// refQueue is the reference model the engine's heap is checked against:
// every pending event of both bands in one slice kept sorted by (at, seq)
// and popped from the front.
type refQueue struct {
	now   Time
	seq   uint64
	evs   []refEvent
	order []string
}

type refEvent struct {
	at  Time
	seq uint64
	tag int
}

func (r *refQueue) add(at Time, seq uint64, tag int) {
	i := sort.Search(len(r.evs), func(i int) bool {
		e := r.evs[i]
		return e.at > at || (e.at == at && e.seq > seq)
	})
	r.evs = append(r.evs, refEvent{})
	copy(r.evs[i+1:], r.evs[i:])
	r.evs[i] = refEvent{at, seq, tag}
}

func (r *refQueue) cancel(seq uint64) {
	for i, e := range r.evs {
		if e.seq == seq {
			r.evs = append(r.evs[:i], r.evs[i+1:]...)
			return
		}
	}
}

func (r *refQueue) step() bool {
	if len(r.evs) == 0 {
		return false
	}
	e := r.evs[0]
	r.evs = r.evs[1:]
	r.now = e.at
	r.order = append(r.order, fmt.Sprintf("%d/%d", e.at, e.tag))
	return true
}

// refSchedule is runSchedule on the reference model.
func refSchedule(ops []queueOp, steps []int) []string {
	var r refQueue
	var timers []uint64 // seq of every band-0 event, in scheduling order
	si := 0
	for i, o := range ops {
		switch {
		case o.cancel:
			if len(timers) > 0 {
				r.cancel(timers[o.victim%len(timers)])
			}
		case o.arrival:
			r.add(r.now.Add(o.delay), arrivalBand|o.key, o.tag)
		default:
			timers = append(timers, r.seq)
			r.add(r.now.Add(o.delay), r.seq, o.tag)
			r.seq++
		}
		if si < len(steps) && steps[si] == i {
			si++
			for k := 0; k < 3; k++ {
				r.step()
			}
		}
	}
	for r.step() {
	}
	return r.order
}

// TestQueueOracleEquivalence checks the engine's heap against the
// sorted-slice model: identical randomized schedules — cancellations,
// same-instant ties in both bands and across them, near events,
// far-future events and dense same-instant bursts — execute in the
// identical order.
func TestQueueOracleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 200 + rng.Intn(800)
		ops := make([]queueOp, n)
		arrKeys := map[uint64]bool{}
		for i := range ops {
			o := &ops[i]
			o.tag = i
			switch rng.Intn(10) {
			case 0: // cancellation of a random earlier band-0 timer
				o.cancel = true
				o.victim = rng.Intn(1 << 20)
			case 1, 2: // band-1 arrival with a unique identity key
				o.arrival = true
				// Half the keys fall among the band-0 seqs in play (fewer
				// than n are taken), with delays that share instants with
				// the short band-0 ones: there only the band bit puts the
				// arrival after a band-0 event.
				span, delay := 1<<30, 2000
				if rng.Intn(2) == 0 {
					span, delay = n, 64
				}
				for {
					o.key = uint64(rng.Intn(span))
					if !arrKeys[o.key] {
						arrKeys[o.key] = true
						break
					}
				}
				o.delay = Duration(rng.Intn(delay))
			default:
				// Delay mix: 0 forces same-instant FIFO ties, small values
				// collide on a few instants, large ones sit deep in the heap
				// while near events churn above them.
				switch rng.Intn(5) {
				case 0:
					o.delay = 0
				case 1:
					o.delay = Duration(rng.Intn(64))
				case 2:
					o.delay = Duration(rng.Intn(100_000))
				case 3:
					o.delay = Duration(1_000_000 + rng.Intn(10_000_000))
				default:
					o.delay = Duration(100_000_000 + rng.Int63n(100_000_000_000))
				}
			}
		}
		// Step bursts at random points so scheduling interleaves with
		// execution.
		var steps []int
		for i := 0; i < n; i += 1 + rng.Intn(20) {
			steps = append(steps, i)
		}

		want := refSchedule(ops, steps)
		got := runSchedule(ops, steps)
		if len(want) != len(got) {
			t.Fatalf("trial %d: model ran %d events, engine %d", trial, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: execution order diverges at event %d: model %s, engine %s",
					trial, i, want[i], got[i])
			}
		}
	}
}

func BenchmarkEngineScheduleStep(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine(1)
	r := rand.New(rand.NewSource(1))
	// Keep a standing pool of 1024 pending events, schedule+pop in a loop.
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(r.Int63n(1_000_000)), func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now().Add(Duration(1+r.Int63n(1000))), func() {})
		e.Step()
	}
}

// BenchmarkEngineHold is the classic hold-model queue benchmark at a
// fixed population: `pending` events are live at all times, and each pop
// schedules one replacement. Six pending events per host model 128, 1024
// and 4096 hosts. The delay mix mirrors dcPIM's event stream — dominated
// by sub-µs per-packet serialization and control timers, with a tail of
// epoch-scale (tens of µs) matching and retransmission timers — so most
// pushes land near the front of the heap. Deep_1M adds a 1-in-64
// far-future tail (up to 80 ms) at 10⁶ pending, far beyond anything a
// fabric run queues. One op = one Step.
func BenchmarkEngineHold(b *testing.B) {
	for _, c := range []struct {
		name    string
		pending int
		farTail bool
	}{
		{"128h", 768, false},
		{"1024h", 6144, false},
		{"4096h", 24576, false},
		{"Deep_1M", 1_000_000, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			eng := NewEngine(int64(c.pending))
			rng := eng.Rand()
			delay := func() Duration {
				switch {
				case c.farTail && rng.Intn(64) == 0:
					return Duration(1 + rng.Int63n(int64(80*Millisecond)))
				case rng.Intn(16) == 0:
					return Duration(1 + rng.Int63n(int64(40*Microsecond)))
				default:
					return Duration(1 + rng.Int63n(int64(800*Nanosecond)))
				}
			}
			var hold func()
			hold = func() { eng.After(delay(), hold) }
			for i := 0; i < c.pending; i++ {
				eng.After(delay(), hold)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !eng.Step() {
					b.Fatal("hold population drained")
				}
			}
		})
	}
}
