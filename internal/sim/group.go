package sim

import "sync"

// Group runs several engines as the shards of one conservatively
// parallel simulation. Each epoch every shard advances to the same
// barrier time; between epochs the caller drains cross-shard staging
// queues (see netsim) and computes the next barrier from the shards'
// earliest pending events plus the lookahead window.
//
// Shard 0 always runs on the caller's goroutine; shards 1..n-1 each get
// a persistent worker goroutine fed by a one-slot channel. An epoch sends
// the barrier time to every worker with pending work, runs shard 0, and
// waits on a WaitGroup. The send happens-before the worker's receive and
// each worker's Done happens-before the coordinator's Wait returning, so
// between epochs the workers are quiescent and the coordinator owns every
// engine: it reads NextAt to size the window and drains staging queues
// into them without further synchronization.
//
// A Group of one engine degenerates to plain serial execution with no
// goroutines and no channels, so the serial path pays nothing.
// A Group checkpoint (GroupState) carries only the barrier counters that
// equivalence tests compare; the worker machinery below is live goroutine
// state, rebuilt from scratch when the resumed run constructs its Group.
type Group struct {
	engines []*Engine //ckpt:skip member engines capture their own EngineStates
	closed  bool      //ckpt:skip lifecycle flag; a restored Group starts fresh

	work []chan Time //ckpt:skip live channels, rebuilt by NewGroup
	//lint:ignore simgoroutine Group IS the sanctioned concurrency primitive; this joins its own epoch workers
	wg sync.WaitGroup //ckpt:skip goroutine join state, rebuilt by NewGroup

	// Barrier-overhead counters, maintained unconditionally (a few slice
	// increments per shard per epoch — noise against an epoch's barrier
	// crossing) and surfaced only through opt-in telemetry
	// (netsim.RegisterShardMetrics), so default runs format nothing.
	epochs     uint64   // barriers executed
	dispatched []uint64 // per shard: epochs it had work inside the window
	skipped    []uint64 // per shard: epochs it was idle and only advanced its clock
	// The critical path in events: an epoch lasts as long as its busiest
	// shard, so Σ over epochs of the most events any shard executed is what
	// a run costs with a core per shard and a free barrier. critical
	// credits each epoch's maximum to the shard that set it (the lowest id
	// on a tie); events holds every engine's count at the last barrier, to
	// take the next epoch's differences from.
	critical []uint64
	events   []uint64
}

// NewGroup builds a group over engines. The slice must be non-empty; the
// group takes ownership of running them (callers must not call Run on a
// member engine while an epoch is in flight).
func NewGroup(engines []*Engine) *Group {
	if len(engines) == 0 {
		panic("sim: empty engine group")
	}
	g := &Group{
		engines:    engines,
		dispatched: make([]uint64, len(engines)),
		skipped:    make([]uint64, len(engines)),
		critical:   make([]uint64, len(engines)),
		events:     make([]uint64, len(engines)),
		work:       make([]chan Time, len(engines)-1),
	}
	for i, eng := range engines {
		g.events[i] = eng.Events()
	}
	for i := range g.work {
		ch := make(chan Time, 1)
		g.work[i] = ch
		eng := engines[i+1]
		//lint:ignore simgoroutine Group's persistent epoch workers are the one sanctioned fabric spawn point
		go func() {
			for t := range ch {
				eng.Run(t)
				g.wg.Done()
			}
		}()
	}
	return g
}

// N returns the number of shards.
func (g *Group) N() int { return len(g.engines) }

// Engine returns shard i's engine.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// RunEpoch advances every shard to until and blocks until all have
// arrived at the barrier. With one shard it is exactly Engine.Run.
//
// Shards with no event inside the window are not dispatched: the
// coordinator advances their clock inline (SkipTo) instead of paying a
// barrier crossing for a no-op epoch.
//
//lint:hotpath epoch barrier; 0-alloc contract of BenchmarkGroupEpoch
func (g *Group) RunEpoch(until Time) {
	g.epochs++
	for i, ch := range g.work {
		eng := g.engines[i+1]
		if at, ok := eng.NextAt(); !ok || at > until {
			eng.SkipTo(until)
			g.skipped[i+1]++
			continue
		}
		g.dispatched[i+1]++
		g.wg.Add(1)
		ch <- until
	}
	g.engines[0].Run(until)
	g.dispatched[0]++
	g.wg.Wait()

	top, most := 0, uint64(0)
	for i, eng := range g.engines {
		n := eng.Events()
		if d := n - g.events[i]; d > most {
			top, most = i, d
		}
		g.events[i] = n
	}
	g.critical[top] += most
}

// Close shuts down the worker goroutines. The group must be idle (no
// epoch in flight). Safe to call more than once.
func (g *Group) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for _, ch := range g.work {
		close(ch)
	}
}

// Now returns the current barrier time (all shards agree between
// epochs; shard 0 is authoritative).
func (g *Group) Now() Time { return g.engines[0].Now() }

// Events returns the total number of events executed across shards.
func (g *Group) Events() uint64 {
	var n uint64
	for _, e := range g.engines {
		n += e.Events()
	}
	return n
}

// Pending returns the total number of live queued events across shards.
func (g *Group) Pending() int {
	var n int
	for _, e := range g.engines {
		n += e.Pending()
	}
	return n
}

// Epochs returns the number of barriers executed so far.
func (g *Group) Epochs() uint64 { return g.epochs }

// Dispatched returns how many epochs shard i ran with work inside the
// window; Skipped how many it skipped as idle. Together they sum to
// Epochs (shard 0 always runs, so its skip count stays zero).
func (g *Group) Dispatched(i int) uint64 { return g.dispatched[i] }

// Skipped returns how many epochs shard i was idle-skipped.
func (g *Group) Skipped(i int) uint64 { return g.skipped[i] }

// Critical returns the events shard i executed in the epochs where no
// shard executed more. Summed over shards it is the run's critical path,
// and Events over that sum bounds the speedup of a core per shard.
func (g *Group) Critical(i int) uint64 { return g.critical[i] }

// NextAt returns the earliest pending event time across shards, or
// false when every shard's queue is empty. Only meaningful between
// epochs.
func (g *Group) NextAt() (Time, bool) {
	var min Time
	ok := false
	for _, e := range g.engines {
		if at, has := e.NextAt(); has && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}
