package sim

import (
	"sync"
	"time"
)

// Group runs several engines as the shards of one conservatively
// parallel simulation. Each epoch every shard advances to the same
// barrier time; between epochs the caller computes the next barrier from
// the shards' earliest pending events — queued on an engine or still
// waiting in the Inbox — plus the lookahead window.
//
// Shard 0 always runs on the caller's goroutine; shards 1..n-1 each get
// a persistent worker goroutine fed by a one-slot channel. An epoch sends
// the barrier time to every worker with pending work, runs shard 0, and
// waits on a WaitGroup; Each sends a function the same way, which is how
// per-shard set-up runs on the goroutine that will run the shard. The send
// happens-before the worker's receive and each worker's Done
// happens-before the coordinator's Wait returning, so between calls the
// workers are quiescent and the coordinator owns every engine: it reads
// NextAt to size the window without further synchronization.
//
// A Group of one engine degenerates to plain serial execution with no
// goroutines and no channels, so the serial path pays nothing.
type Group struct {
	engines []*Engine
	closed  bool

	work  []chan shardWork
	inbox Inbox // cross-shard queues, registered by their owner
	//lint:ignore simgoroutine Group IS the sanctioned concurrency primitive; this joins its own epoch workers
	wg sync.WaitGroup

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

	// wall meters, on a clock the caller hands in (SetClock), how long the
	// shard goroutines have had work: the time inside Each and RunEpoch.
	// What a run's wall time has beyond it ran on one goroutine.
	wall struct {
		now    func() time.Duration
		shared time.Duration
	}
}

// shardWork is one hand-off to a shard's worker: run fn for the shard, or,
// fn being nil, the shard's epoch up to until.
type shardWork struct {
	until Time
	fn    func(shard int)
}

// Inbox is a set of per-shard queues of events that one shard produced for
// another during an epoch and that are not on the destination engine yet
// (netsim's staging rows). A group that has one counts the waiting events
// as pending — in NextAt and in the idle-skip test of RunEpoch — and has
// every shard land its own at the start of its epoch run, on the shard's
// goroutine, so the hand-over costs the coordinator nothing.
type Inbox interface {
	// InboundAt returns the earliest time of an event waiting for the
	// shard, or false when none waits. Called by the coordinator for a
	// shard that is not running: between epochs, or before its hand-off.
	InboundAt(shard int) (Time, bool)
	// Land schedules the shard's waiting events on its engine and empties
	// its queues. Called on the shard's goroutine as its epoch starts, or
	// between the coordinator's hand-offs for a shard the epoch skips.
	Land(shard int)
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
		work:       make([]chan shardWork, len(engines)-1),
	}
	for i, eng := range engines {
		g.events[i] = eng.Events()
	}
	for i := range g.work {
		ch := make(chan shardWork, 1)
		g.work[i] = ch
		shard := i + 1
		//lint:ignore simgoroutine Group's persistent epoch workers are the one sanctioned fabric spawn point
		go func() {
			for w := range ch {
				if w.fn != nil {
					w.fn(shard)
				} else {
					g.run(shard, w.until)
				}
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

// SetInbox registers the queues of cross-shard events the group's epochs
// deliver. Without one the group runs its engines and nothing else.
func (g *Group) SetInbox(in Inbox) { g.inbox = in }

// SetClock has the group meter its shared stretches on now, a monotonic
// wall clock (experiments.WallTimer's; internal/ code reads no other).
// Only the run that reports a serial share is handed one (`-run scale`);
// without one nothing is timed and no epoch reads a clock.
func (g *Group) SetClock(now func() time.Duration) { g.wall.now = now }

// SharedWall returns the wall time spent so far inside Each and RunEpoch —
// the stretches in which every shard's goroutine had work to pick up. A
// run's wall time minus this is what it spent on one goroutine.
func (g *Group) SharedWall() time.Duration { return g.wall.shared }

// clockIn and clockOut bracket a shared stretch. A group of one engine
// has none: everything it does runs on the caller's goroutine.
func (g *Group) clockIn() time.Duration {
	if g.wall.now == nil || len(g.work) == 0 {
		return 0
	}
	return g.wall.now()
}

func (g *Group) clockOut(in time.Duration) {
	if g.wall.now != nil && len(g.work) != 0 {
		g.wall.shared += g.wall.now() - in
	}
}

// Each runs fn(i) for every shard i on the goroutine that runs shard i's
// epochs — shard 0 on the caller's — and returns when all have finished.
// It is how set-up that touches only one shard's engine and devices
// (wiring, protocol start, flow injection) runs in parallel on the
// goroutines that already exist; with one engine it is a plain call. The
// group must be idle, as for RunEpoch.
func (g *Group) Each(fn func(shard int)) {
	in := g.clockIn()
	g.wg.Add(len(g.work))
	for _, ch := range g.work {
		ch <- shardWork{fn: fn}
	}
	fn(0)
	g.wg.Wait()
	g.clockOut(in)
}

// run is one shard's epoch: land what other shards queued for it, then
// execute up to the barrier.
func (g *Group) run(shard int, until Time) {
	if g.inbox != nil {
		g.inbox.Land(shard)
	}
	g.engines[shard].Run(until)
}

// nextAt returns the time of shard i's earliest pending event, on its
// engine or waiting in the inbox.
func (g *Group) nextAt(i int) (Time, bool) {
	at, ok := g.engines[i].NextAt()
	if g.inbox != nil {
		if in, has := g.inbox.InboundAt(i); has && (!ok || in < at) {
			return in, true
		}
	}
	return at, ok
}

// RunEpoch advances every shard to until and blocks until all have
// arrived at the barrier. With one shard it is exactly Engine.Run.
//
// Shards with no event inside the window are not dispatched: the
// coordinator advances their clock inline (SkipTo) instead of paying a
// barrier crossing for a no-op epoch, and lands whatever waits for them
// beyond the barrier itself — nobody else touches a skipped shard's
// engine or inbox during the epoch.
//
//lint:hotpath epoch barrier; 0-alloc contract of BenchmarkGroupEpoch
func (g *Group) RunEpoch(until Time) {
	in := g.clockIn()
	g.epochs++
	for i, ch := range g.work {
		shard := i + 1
		if at, ok := g.nextAt(shard); !ok || at > until {
			if g.inbox != nil {
				g.inbox.Land(shard)
			}
			g.engines[shard].SkipTo(until)
			g.skipped[shard]++
			continue
		}
		g.dispatched[shard]++
		g.wg.Add(1)
		ch <- shardWork{until: until}
	}
	g.run(0, until)
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
	g.clockOut(in)
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

// NextAt returns the earliest pending event time across shards — events
// waiting in the inbox included — or false when nothing is pending
// anywhere. Only meaningful between epochs.
func (g *Group) NextAt() (Time, bool) {
	var min Time
	ok := false
	for i := range g.engines {
		if at, has := g.nextAt(i); has && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}
