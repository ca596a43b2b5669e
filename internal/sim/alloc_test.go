package sim

import "testing"

// The engine's per-event calls allocate nothing in steady state. These
// tests hold that contract on the set-ups of BenchmarkGroupEpoch and
// BenchmarkEngineHold: Group.RunEpoch and Engine.Run here, Engine.Step
// and Engine.AfterFunc (which After and every re-armed event go through)
// in both. The fabric's paths are held by the root package's
// TestForwardingAllocs, dcPIM's by core's TestPacerMallocsPerPacket;
// DESIGN.md §12 maps every per-packet function to its test.

// TestGroupEpochAllocs runs BenchmarkGroupEpoch's set-up — 4 engines, 1
// or 4 of them executing one event per epoch — and asserts that an
// epoch allocates nothing once the event slabs are warm.
func TestGroupEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	for _, busy := range []int{1, 4} {
		engines := make([]*Engine, 4)
		for i := range engines {
			engines[i] = NewEngine(int64(i + 1))
		}
		g := NewGroup(engines)
		const step = Microsecond
		for i := 0; i < busy; i++ {
			eng := engines[i]
			var tick func()
			tick = func() { eng.After(step, tick) }
			eng.After(step, tick)
		}
		until := Time(0)
		epoch := func() {
			until = until.Add(step)
			g.RunEpoch(until)
		}
		for i := 0; i < 100; i++ {
			epoch()
		}
		if allocs := testing.AllocsPerRun(1000, epoch); allocs != 0 {
			t.Errorf("RunEpoch with %d of 4 engines busy: %v allocs per epoch, want 0", busy, allocs)
		}
		g.Close()
	}
}

// TestEngineStepAllocs runs BenchmarkEngineHold's hold model at its
// 1024-host population — every pop schedules one replacement, so 6144
// events stay pending — and asserts that a step allocates nothing.
func TestEngineStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	const pending = 6144
	eng := NewEngine(pending)
	rng := eng.Rand()
	delay := func() Duration {
		if rng.Intn(16) == 0 {
			return Duration(1 + rng.Int63n(int64(40*Microsecond)))
		}
		return Duration(1 + rng.Int63n(int64(800*Nanosecond)))
	}
	var hold func()
	hold = func() { eng.After(delay(), hold) }
	for i := 0; i < pending; i++ {
		eng.After(delay(), hold)
	}
	step := func() {
		if !eng.Step() {
			t.Fatal("hold population drained")
		}
	}
	for i := 0; i < pending; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(10000, step); allocs != 0 {
		t.Errorf("Step at %d pending: %v allocs per step, want 0", pending, allocs)
	}
	if n := eng.Pending(); n != pending {
		t.Errorf("Pending() = %d after the run, want %d", n, pending)
	}
}
