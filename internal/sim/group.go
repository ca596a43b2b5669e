package sim

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Group runs several engines as the shards of one conservatively
// parallel simulation. Each epoch every shard advances to the same
// barrier time; between epochs the caller computes the next barrier from
// the shards' earliest pending events — queued on an engine or still
// waiting in the Inbox — plus the lookahead window.
//
// Shard 0 always runs on the caller's goroutine; shards 1..n-1 each get
// a persistent worker goroutine fed through a mailbox. An epoch posts the
// barrier time to every worker with pending work, runs shard 0, and waits
// for the posted workers to finish; Each posts a function the same way,
// which is how per-shard set-up runs on the goroutine that will run the
// shard. A post happens-before the worker takes it and each finish
// happens-before the coordinator's wait returning, so between calls the
// workers are quiescent and the coordinator owns every engine: it reads
// NextAt to size the window without further synchronization.
//
// A goroutine that runs out of work at a hand-off — a worker waiting for
// its next post, the coordinator waiting for its workers — polls for up to
// spinBound before it blocks, but only while the shards of every open
// group fit the cores (polls); otherwise it blocks at once. Either way the
// wait ends on the same post or finish, so epochs, event order and every
// count are the same (DESIGN.md §11.2).
//
// A Group of one engine degenerates to plain serial execution with no
// goroutines and no mailboxes, so the serial path pays nothing.
type Group struct {
	// Read by the workers, written only while the group is idle.
	engines []*Engine
	procs   int64     // GOMAXPROCS at NewGroup: the cores polls measures openShards against
	boxes   []mailbox // one per worker: boxes[i] feeds shard i+1
	inbox   Inbox     // cross-shard queues, registered by their owner
	now     func() time.Duration
	// The coordinator's end of the hand-offs: posts counts every one so
	// far and finished the ones done. A coordinator about to block stores
	// in waiting the count it waits for and looks at finished once more;
	// the finish that brings finished to the count in waiting claims it
	// back and sends on wake. Every worker writes finished and the
	// coordinator polls it, so it has a cache line to itself (128 bytes:
	// the adjacent-line prefetcher moves lines in pairs); posts is the
	// coordinator's alone.
	waiting  atomic.Uint64
	wake     chan struct{}
	_        [128]byte
	finished atomic.Uint64
	_        [128]byte
	posts    uint64
	closed   bool

	// Barrier-overhead counters, maintained unconditionally (a few slice
	// increments per shard per epoch — noise against an epoch's barrier
	// crossing) and surfaced only through netsim.Fabric.ShardStats, so
	// default runs format nothing.
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

	// wall meters, on the clock now the caller hands in (SetClock), how
	// long the shard goroutines have had work (shared: the time inside
	// Each and RunEpoch), how long each shard was busy inside its epochs,
	// and what the epochs took beyond their busiest shard. What a run's
	// wall time has beyond shared ran on one goroutine.
	wall struct {
		shared   time.Duration
		overhead time.Duration
		busy     []time.Duration // per shard, summed over epochs
	}
}

// mailbox is one worker's end of the hand-off. The coordinator writes
// work and then bumps seq, the number of posts so far; the worker, having
// taken some, waits for the next. A worker about to block stores in parked
// the number of the post it waits for and looks at seq once more; a
// coordinator that finds its post's number in parked after the bump claims
// it back (CompareAndSwap to 0) and sends on wake. Both sides write before
// they read, so at least one sees the other, and the number keeps a post
// from claiming a later wait (DESIGN.md §11.2). Each part sits on lines
// of its own: a spinning worker polls seq, which only a post writes, and a
// post reads parked, which only a worker about to block writes.
type mailbox struct {
	seq  atomic.Uint64
	work shardWork
	wake chan struct{}
	_    [128]byte
	// Written by the worker: parked as it blocks, read by every post;
	// busy, the shard's busy time inside its epochs, in a metered run
	// only, and read by the coordinator after each epoch.
	parked atomic.Uint64
	_      [128]byte
	busy   time.Duration
	_      [128]byte
}

// Polling at a hand-off: spinYield polls between yields of the P, and
// spinBound of host time before the poller blocks. The bound covers an
// epoch's imbalance between shards and the coordinator's work between
// epochs on the fabrics that shard (hundreds of microseconds), and a
// group left idle — between set-up steps, or after its last epoch — stops
// burning its cores long before anyone could notice.
const (
	spinYield = 1 << 12
	spinBound = 2 * time.Millisecond
)

// openShards counts the shards of every open group of more than one
// shard, process-wide: NewGroup adds them and Close takes them back. A
// hand-off polls only while they all fit the cores, so concurrent groups
// (RunMany) never poll more goroutines than there are Ps; a group wider
// than GOMAXPROCS, or beside others that fill the cores, blocks at once,
// where polling measured slower. Every hand-off reads the count and only
// opening and closing write it, so it has a line of its own.
var openShards struct {
	_ [128]byte
	n atomic.Int64
	_ [128]byte
}

// polls reports whether a hand-off that starts now polls before it blocks.
func (g *Group) polls() bool { return openShards.n.Load() <= g.procs }

// spinner paces one bounded poll: more reports whether to poll again,
// yielding the P every spinYield polls and reading the clock only there,
// so a post that arrives within the first spinYield polls costs no clock
// read at all.
type spinner struct {
	polls    int
	deadline time.Time
}

func (s *spinner) more() bool {
	if s.polls++; s.polls%spinYield != 0 {
		return true
	}
	runtime.Gosched()
	// The spin bound is host time by nature: it bounds CPU burnt waiting
	// and never reaches simulated time.
	now := time.Now()
	if s.deadline.IsZero() {
		s.deadline = now.Add(spinBound)
	}
	return now.Before(s.deadline)
}

// shardWork is one hand-off to a shard's worker: run fn for the shard, or,
// fn being nil, the shard's epoch up to until; quit ends the worker.
type shardWork struct {
	until Time
	fn    func(shard int)
	quit  bool
}

// Inbox is a set of per-shard queues of events that one shard produced for
// another during an epoch and that are not on the destination engine yet
// (netsim's staging logs). A group that has one counts the waiting events
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
	n := len(engines)
	g := &Group{
		engines:    engines,
		procs:      int64(runtime.GOMAXPROCS(0)),
		boxes:      make([]mailbox, n-1),
		wake:       make(chan struct{}, 1),
		dispatched: make([]uint64, n),
		skipped:    make([]uint64, n),
		critical:   make([]uint64, n),
		events:     make([]uint64, n),
	}
	g.wall.busy = make([]time.Duration, n)
	if n > 1 {
		openShards.n.Add(int64(n))
	}
	for i, eng := range engines {
		g.events[i] = eng.Events()
	}
	for i := range g.boxes {
		box := &g.boxes[i]
		box.wake = make(chan struct{}, 1)
		shard := i + 1
		go g.work(shard, box)
	}
	return g
}

// work is shard's worker: it takes one post at a time and finishes it.
func (g *Group) work(shard int, box *mailbox) {
	for taken := uint64(0); ; {
		g.await(box, taken)
		taken++
		chaos()
		w := box.work
		switch {
		case w.quit:
			g.finish()
			return
		case w.fn != nil:
			w.fn(shard)
		default:
			if busy := g.run(shard, w.until); busy != 0 {
				box.busy += busy
			}
		}
		g.finish()
	}
}

// await returns once box holds a post beyond the taken ones.
func (g *Group) await(box *mailbox, taken uint64) {
	next := taken + 1
	spin := g.polls()
	for s := (spinner{}); box.seq.Load() != next; {
		if spin && s.more() {
			continue
		}
		chaos()
		box.parked.Store(next)
		// The re-check: a post that bumped seq before parked was set did
		// not see it, and sends no wake-up.
		if box.seq.Load() == next && box.parked.CompareAndSwap(next, 0) {
			return
		}
		// Blocked, or the coordinator claimed parked first: either way its
		// wake-up is on the way.
		<-box.wake
		return
	}
}

// post hands w to box's worker. The worker must have finished its
// previous post.
func (g *Group) post(box *mailbox, w shardWork) {
	g.posts++
	box.work = w
	n := box.seq.Add(1)
	chaos()
	if box.parked.Load() == n && box.parked.CompareAndSwap(n, 0) {
		box.wake <- struct{}{}
	}
}

// finish reports a post done; the last one a blocked coordinator waits
// for wakes it.
func (g *Group) finish() {
	chaos()
	if n := g.finished.Add(1); g.waiting.Load() == n && g.waiting.CompareAndSwap(n, 0) {
		g.wake <- struct{}{}
	}
}

// wait returns once every posted worker has finished.
func (g *Group) wait() {
	posts := g.posts
	spin := g.polls()
	for s := (spinner{}); g.finished.Load() != posts; {
		if spin && s.more() {
			continue
		}
		chaos()
		g.waiting.Store(posts)
		// The re-check: a finish that reached posts before waiting was set
		// did not see it, and sends no wake-up.
		if g.finished.Load() == posts && g.waiting.CompareAndSwap(posts, 0) {
			return
		}
		// Blocked, or the last finish claimed waiting first: either way
		// its wake-up is on the way.
		<-g.wake
		return
	}
}

// N returns the number of shards.
func (g *Group) N() int { return len(g.engines) }

// Engine returns shard i's engine.
func (g *Group) Engine(i int) *Engine { return g.engines[i] }

// SetInbox registers the queues of cross-shard events the group's epochs
// deliver. Without one the group runs its engines and nothing else.
func (g *Group) SetInbox(in Inbox) { g.inbox = in }

// SetClock has the group meter its shared stretches, each shard's busy
// time and the epochs' overhead on now, a monotonic wall clock
// (experiments.WallTimer's; internal/ code reads no other). Only a metered
// run is handed one (`-run scale`); without one nothing is timed and no
// epoch reads a clock. now is called from every shard's goroutine.
func (g *Group) SetClock(now func() time.Duration) { g.now = now }

// SharedWall returns the wall time spent so far inside Each and RunEpoch —
// the stretches in which every shard's goroutine had work to pick up. A
// run's wall time minus this is what it spent on one goroutine.
func (g *Group) SharedWall() time.Duration { return g.wall.shared }

// Busy returns the wall time shard i spent inside its epochs — landing
// what waited for it and running its engine — when metered.
func (g *Group) Busy(i int) time.Duration { return g.wall.busy[i] }

// EpochOverhead returns Σ over epochs of the epoch's wall time minus its
// busiest shard's busy time, when metered: what the barrier itself cost
// (hand-offs, wake-ups, the coordinator's skip and count work).
func (g *Group) EpochOverhead() time.Duration { return g.wall.overhead }

// clockIn and clockOut bracket a shared stretch. A group of one engine
// has none: everything it does runs on the caller's goroutine.
func (g *Group) clockIn() time.Duration {
	if g.now == nil || len(g.boxes) == 0 {
		return 0
	}
	return g.now()
}

func (g *Group) clockOut(in time.Duration) time.Duration {
	if g.now == nil || len(g.boxes) == 0 {
		return 0
	}
	out := g.now()
	g.wall.shared += out - in
	return out - in
}

// Each runs fn(i) for every shard i on the goroutine that runs shard i's
// epochs — shard 0 on the caller's — and returns when all have finished.
// It is how set-up that touches only one shard's engine and devices
// (wiring, protocol start, flow injection) runs in parallel on the
// goroutines that already exist; with one engine it is a plain call. The
// group must be idle, as for RunEpoch.
func (g *Group) Each(fn func(shard int)) {
	in := g.clockIn()
	for i := range g.boxes {
		g.post(&g.boxes[i], shardWork{fn: fn})
	}
	fn(0)
	g.wait()
	g.clockOut(in)
}

// run is one shard's epoch: land what other shards queued for it, then
// execute up to the barrier. It returns how long that took when metered.
func (g *Group) run(shard int, until Time) time.Duration {
	var in time.Duration
	if g.now != nil {
		in = g.now()
	}
	if g.inbox != nil {
		g.inbox.Land(shard)
	}
	g.engines[shard].Run(until)
	if g.now == nil {
		return 0
	}
	return g.now() - in
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
// engine or inbox during the epoch. TestGroupEpochAllocs holds it
// allocation-free.
func (g *Group) RunEpoch(until Time) {
	in := g.clockIn()
	g.epochs++
	for i := range g.boxes {
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
		g.post(&g.boxes[i], shardWork{until: until})
	}
	busy0 := g.run(0, until)
	g.dispatched[0]++
	g.wait()

	top, most := 0, uint64(0)
	for i, eng := range g.engines {
		n := eng.Events()
		if d := n - g.events[i]; d > most {
			top, most = i, d
		}
		g.events[i] = n
	}
	g.critical[top] += most
	if epoch := g.clockOut(in); epoch != 0 {
		g.meter(epoch, busy0)
	}
}

// meter books one metered epoch: each shard's busy time (a worker's
// running total is in its mailbox, shard 0's is busy0) and the epoch's
// wall time beyond its busiest shard.
func (g *Group) meter(epoch, busy0 time.Duration) {
	g.wall.busy[0] += busy0
	most := busy0
	for i := range g.boxes {
		d := g.boxes[i].busy - g.wall.busy[i+1]
		g.wall.busy[i+1] = g.boxes[i].busy
		most = max(most, d)
	}
	g.wall.overhead += epoch - most
}

// Close shuts down the worker goroutines, returning once each has taken
// its last post, and takes its shards out of openShards. The group must
// be idle (no epoch in flight). Safe to call more than once.
func (g *Group) Close() {
	if g.closed {
		return
	}
	g.closed = true
	for i := range g.boxes {
		g.post(&g.boxes[i], shardWork{quit: true})
	}
	g.wait()
	if n := len(g.engines); n > 1 {
		openShards.n.Add(-int64(n))
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
