package sim

import (
	"math/rand"
	"testing"
)

// requireDrainsAsCaptured captures e, drains it with the journal on, and
// requires the executed keys to be exactly the captured pending list:
// st.Pending is sorted into execution order, so capture must have found
// every queued and lane event and nothing else. The events must not
// schedule more.
func requireDrainsAsCaptured(t *testing.T, e *Engine) EngineState {
	t.Helper()
	st := e.CaptureState()
	if len(st.Pending) != e.Pending() {
		t.Fatalf("captured %d records of %d pending", len(st.Pending), e.Pending())
	}
	e.StartJournal()
	e.RunAll()
	got := e.TakeJournal()
	if len(got) != len(st.Pending) {
		t.Fatalf("drained %d events, captured %d", len(got), len(st.Pending))
	}
	for i, rec := range st.Pending {
		if got[i] != rec {
			t.Fatalf("pop %d = %+v, captured %+v", i, got[i], rec)
		}
	}
	return st
}

// fillRandom schedules n events over [now, now+spread) on e.
func fillRandom(e *Engine, rng *rand.Rand, n int, spread int64) {
	for i := 0; i < n; i++ {
		at := e.Now().Add(Duration(rng.Int63n(spread)))
		e.Schedule(at, func() {})
	}
}

// TestCaptureHeap captures an engine mid-run — drained past its first
// events, a third of the remaining timers cancelled, fresh inserts on
// top — and requires the capture to list exactly what the engine goes on
// to execute, in order, with the seq allocator where the engine has it.
func TestCaptureHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := NewEngine(7)
	var timers []Timer
	for i := 0; i < 2_000; i++ {
		timers = append(timers, e.Schedule(Time(rng.Int63n(500_000)), func() {}))
	}
	e.Run(100_000)
	// Cancelled heap slots must simply be absent from the capture.
	for i, tm := range timers {
		if i%3 == 0 {
			tm.Cancel()
		}
	}
	fillRandom(e, rng, 500, 400_000)
	seq := e.seq
	st := requireDrainsAsCaptured(t, e)
	if st.Seq != seq || st.Now != 100_000 {
		t.Fatalf("captured seq %d now %d, want %d, 100000", st.Seq, st.Now, seq)
	}
}

func TestCaptureArrivalBand(t *testing.T) {
	// Band-1 events keep their identity-derived keys in a capture and
	// still sort after same-instant band-0 events.
	e := NewEngine(5)
	e.Schedule(100, func() {})
	e.ScheduleArrival(100, 7, func(a, b any, i int) {}, nil, nil, 0)
	e.ScheduleArrival(100, 3, func(a, b any, i int) {}, nil, nil, 0)
	e.Schedule(50, func() {})

	want := []EventRecord{
		{At: 50, Seq: 1},
		{At: 100, Seq: 0},
		{At: 100, Seq: arrivalBand | 3},
		{At: 100, Seq: arrivalBand | 7},
	}
	st := requireDrainsAsCaptured(t, e)
	if len(st.Pending) != len(want) {
		t.Fatalf("captured %d events, want %d", len(st.Pending), len(want))
	}
	for i := range want {
		if st.Pending[i] != want[i] {
			t.Fatalf("capture[%d] = %+v, want %+v", i, st.Pending[i], want[i])
		}
	}
}

func TestCaptureIsPure(t *testing.T) {
	// Capturing must not perturb the run: two identical engines, one
	// captured mid-run repeatedly, drain identically.
	a := NewEngine(9)
	b := NewEngine(9)
	var ta, tb []Time
	rngA, rngB := rand.New(rand.NewSource(8)), rand.New(rand.NewSource(8))
	schedule := func(e *Engine, rng *rand.Rand, out *[]Time) {
		for i := 0; i < 2_000; i++ {
			at := Time(rng.Int63n(1_000_000))
			e.Schedule(at, func() { *out = append(*out, e.Now()) })
		}
	}
	schedule(a, rngA, &ta)
	schedule(b, rngB, &tb)
	for _, horizon := range []Time{100_000, 400_000, 900_000} {
		a.Run(horizon)
		b.Run(horizon)
		_ = a.CaptureState() // a is captured, b is the control
	}
	a.RunAll()
	b.RunAll()
	if len(ta) != len(tb) {
		t.Fatalf("%d vs %d events", len(ta), len(tb))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("event %d at %d vs %d", i, ta[i], tb[i])
		}
	}
}

func TestCountingSourceStreamIdentity(t *testing.T) {
	// Wrapping must not change the stream rand.Rand produces.
	plain := rand.New(rand.NewSource(42))
	counted := rand.New(NewCountingSource(42))
	for i := 0; i < 1_000; i++ {
		if a, b := plain.Int63(), counted.Int63(); a != b {
			t.Fatalf("Int63 %d: %d vs %d", i, a, b)
		}
	}
	if a, b := plain.Float64(), counted.Float64(); a != b {
		t.Fatalf("Float64: %v vs %v", a, b)
	}
	if a, b := plain.Intn(97), counted.Intn(97); a != b {
		t.Fatalf("Intn: %d vs %d", a, b)
	}
}

func TestJournal(t *testing.T) {
	e := NewEngine(3)
	e.Schedule(10, func() {})
	e.Schedule(10, func() {})
	e.Schedule(30, func() {})
	e.Run(20) // two events before the journal starts... none recorded
	if j := e.TakeJournal(); len(j) != 0 {
		t.Fatalf("journal recorded %d events while off", len(j))
	}
	e.StartJournal()
	e.Schedule(40, func() {})
	e.RunAll()
	j := e.TakeJournal()
	want := []EventRecord{{At: 30, Seq: 2}, {At: 40, Seq: 3}}
	if len(j) != len(want) {
		t.Fatalf("journal has %d events, want %d", len(j), len(want))
	}
	for i := range want {
		if j[i] != want[i] {
			t.Fatalf("journal[%d] = %+v, want %+v", i, j[i], want[i])
		}
	}
	// TakeJournal resets the window but keeps recording.
	e.Schedule(50, func() {})
	e.RunAll()
	if j := e.TakeJournal(); len(j) != 1 || j[0] != (EventRecord{At: 50, Seq: 4}) {
		t.Fatalf("second window = %+v", j)
	}
}
