package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// underWatchdog runs body on a goroutine of its own and fails the test
// with a dump of every goroutine if body has not returned within limit: a
// barrier that loses a wake-up shows up in seconds with the stuck stacks,
// not at the package timeout with none. body reports through t.Errorf and
// returns; it must not call t.Fatal off the test goroutine.
func underWatchdog(t *testing.T, limit time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(limit):
		buf := make([]byte, 1<<20)
		t.Fatalf("no return within %v\n%s", limit, buf[:runtime.Stack(buf, true)])
	}
}

const groupWatchdog = 10 * time.Second

// TestGroupEpochs runs two engines through barrier-synchronized epochs
// and checks each executes exactly its own events, in time order, with
// the barrier clock agreeing across shards.
func TestGroupEpochs(t *testing.T) {
	underWatchdog(t, groupWatchdog, func() {
		a, b := NewEngine(1), NewEngine(1)
		g := NewGroup([]*Engine{a, b})
		defer g.Close()

		var ran []Time
		a.Schedule(10, func() { ran = append(ran, a.Now()) })
		var ranB []Time
		b.Schedule(5, func() { ranB = append(ranB, b.Now()) })
		b.Schedule(25, func() { ranB = append(ranB, b.Now()) })

		g.RunEpoch(15)
		if len(ran) != 1 || ran[0] != 10 {
			t.Errorf("shard 0 ran %v, want [10]", ran)
		}
		if len(ranB) != 1 || ranB[0] != 5 {
			t.Errorf("shard 1 ran %v, want [5]", ranB)
		}
		if a.Now() != 15 || b.Now() != 15 || g.Now() != 15 {
			t.Errorf("clocks after epoch: %v %v %v, want 15", a.Now(), b.Now(), g.Now())
		}
		if at, ok := g.NextAt(); !ok || at != 25 {
			t.Errorf("NextAt = %v %v, want 25 true", at, ok)
		}
		g.RunEpoch(30)
		if len(ranB) != 2 || ranB[1] != 25 {
			t.Errorf("shard 1 after second epoch: %v", ranB)
		}
		if g.Pending() != 0 {
			t.Errorf("pending %d after drain", g.Pending())
		}
		if g.Events() != 3 {
			t.Errorf("events %d, want 3", g.Events())
		}
	})
}

// TestGroupSingle checks the n=1 degenerate path is plain Engine.Run.
func TestGroupSingle(t *testing.T) {
	e := NewEngine(7)
	g := NewGroup([]*Engine{e})
	fired := false
	e.Schedule(3, func() { fired = true })
	g.RunEpoch(3)
	if !fired || g.Now() != 3 {
		t.Fatalf("single-engine epoch: fired=%v now=%v", fired, g.Now())
	}
	g.Close()
	g.Close() // idempotent
}

// TestGroupCrossScheduling has shard 0's events schedule onto shard 1's
// engine for a later epoch — the pattern the netsim staging drain uses
// between epochs.
func TestGroupCrossScheduling(t *testing.T) {
	underWatchdog(t, groupWatchdog, func() {
		a, b := NewEngine(1), NewEngine(1)
		g := NewGroup([]*Engine{a, b})
		defer g.Close()

		var got Time
		a.Schedule(10, func() {})
		g.RunEpoch(10)
		// Between epochs (barrier held), scheduling on any shard is safe.
		b.Schedule(20, func() { got = b.Now() })
		g.RunEpoch(30)
		if got != 20 {
			t.Errorf("cross-scheduled event ran at %v, want 20", got)
		}
	})
}

// TestGroupShardsOverlap proves the shards of one epoch are in flight at
// the same time: each runs an event that cannot finish until every other
// shard's has started. A barrier that runs the shards one after the other
// on the coordinator can never complete the exchange. It runs at 1–8
// shards on 1, 2 and 4 Ps, so groups that poll at their hand-offs (as
// many shards as Ps, or fewer) and groups that block at once both meet.
func TestGroupShardsOverlap(t *testing.T) {
	const patience = 5 * time.Second
	for _, procs := range []int{1, 2, 4} {
		for shards := 1; shards <= 8; shards++ {
			underWatchdog(t, groupWatchdog, func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				engines := make([]*Engine, shards)
				started := make([]chan struct{}, shards)
				met := make([]bool, shards) // met[i] is written by shard i's event only
				for i := range engines {
					engines[i] = NewEngine(int64(i + 1))
					started[i] = make(chan struct{})
				}
				g := NewGroup(engines)
				defer g.Close()
				for i, eng := range engines {
					eng.Schedule(1, func() {
						close(started[i])
						timeout := time.After(patience)
						for _, other := range started {
							select {
							case <-other:
							case <-timeout:
								return
							}
						}
						met[i] = true
					})
				}
				g.RunEpoch(1)
				for i, ok := range met {
					if !ok {
						t.Errorf("procs=%d shards=%d: shard %d never saw every shard start within %v: the epoch ran them one after the other",
							procs, shards, i, patience)
					}
				}
			})
		}
	}
}

// TestGroupSpinReservation: a group polls at its hand-offs only while its
// shards fit beside the groups already polling, so two concurrent groups
// never poll more goroutines than there are Ps; a group wider than
// GOMAXPROCS never polls, a group of one has no hand-offs, and Close hands
// the slots back. A group that blocks at once still runs its epochs.
func TestGroupSpinReservation(t *testing.T) {
	underWatchdog(t, groupWatchdog, func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
		if held := spinSlots.Load(); held != 0 {
			t.Errorf("%d spin slots held before the test: a group was not closed", held)
			return
		}
		group := func(shards int) *Group {
			engines := make([]*Engine, shards)
			for i := range engines {
				engines[i] = NewEngine(1)
				engines[i].Schedule(1, func() {})
			}
			return NewGroup(engines)
		}
		first, second, wide, single := group(3), group(2), group(5), group(1)
		if !first.spin || second.spin || wide.spin || single.spin {
			t.Errorf("polling: 3 shards %v, 2 beside them %v, 5 shards %v, 1 shard %v; want true, false, false, false",
				first.spin, second.spin, wide.spin, single.spin)
		}
		if held := spinSlots.Load(); held != 3 {
			t.Errorf("%d spin slots held, want 3", held)
		}
		for _, g := range []*Group{first, second, wide, single} {
			g.RunEpoch(1)
			if g.Events() != uint64(g.N()) {
				t.Errorf("%d shards ran %d events, want %d", g.N(), g.Events(), g.N())
			}
		}
		first.Close()
		first.Close() // idempotent: hands the slots back once
		third := group(4)
		if !third.spin {
			t.Errorf("4 shards on 4 Ps after the first group closed do not poll")
		}
		for _, g := range []*Group{second, wide, single, third} {
			g.Close()
		}
		if held := spinSlots.Load(); held != 0 {
			t.Errorf("%d spin slots held after every group closed, want 0", held)
		}
	})
}

// TestGroupSpinParks: a polling group left idle blocks within the spin
// bound — the worker waiting for its next post, and the coordinator
// waiting for a worker that is still busy — and a post or finish wakes it
// from there.
func TestGroupSpinParks(t *testing.T) {
	underWatchdog(t, groupWatchdog, func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		a, b := NewEngine(1), NewEngine(1)
		g := NewGroup([]*Engine{a, b})
		defer g.Close()
		if !g.spin {
			t.Errorf("2 shards on 2 Ps do not poll")
			return
		}
		// Generous against the bound: a loaded machine, or -race, slows the
		// poll loop, but not by a factor of a hundred.
		const limit = 100 * spinBound
		within := func(what string, parked func() bool) {
			start := time.Now()
			for !parked() {
				if time.Since(start) > limit {
					t.Errorf("%s still polling after %v (bound %v)", what, limit, spinBound)
					return
				}
				time.Sleep(spinBound / 4)
			}
		}

		b.Schedule(1, func() {})
		g.RunEpoch(1)
		within("idle worker", func() bool { return g.boxes[0].parked.Load() != 0 })

		// Shard 1's event outlasts the bound; the coordinator, done with
		// shard 0 at once, blocks for it.
		release := make(chan struct{})
		b.Schedule(2, func() { <-release })
		a.Schedule(2, func() {})
		go func() {
			within("coordinator", func() bool { return g.waiting.Load() != 0 })
			close(release)
		}()
		g.RunEpoch(2)
		if g.Events() != 3 || g.Now() != 2 {
			t.Errorf("events %d at %v after waking, want 3 at 2", g.Events(), g.Now())
		}
	})
}

// TestGroupCriticalPath pins the clock-free critical path: each epoch
// credits the most events any one shard executed to that shard (the
// lowest id on a tie), whether the other was dispatched or idle-skipped,
// and an empty epoch credits nothing.
func TestGroupCriticalPath(t *testing.T) {
	underWatchdog(t, groupWatchdog, func() {
		a, b := NewEngine(1), NewEngine(1)
		g := NewGroup([]*Engine{a, b})
		defer g.Close()

		// Events per 10-tick epoch: shard 0 runs 3, 1, 2, 1, 0; shard 1
		// runs 2, 4, 2, 0 (skipped), 0.
		for epoch, n := range [][2]int{{3, 2}, {1, 4}, {2, 2}, {1, 0}, {0, 0}} {
			for i, eng := range []*Engine{a, b} {
				for k := 0; k < n[i]; k++ {
					eng.Schedule(Time(epoch*10+1+k), func() {})
				}
			}
		}
		for epoch := 1; epoch <= 5; epoch++ {
			g.RunEpoch(Time(epoch * 10))
		}
		if g.Events() != 15 || g.Skipped(1) != 2 {
			t.Errorf("events %d, shard 1 skipped %d; want 15, 2", g.Events(), g.Skipped(1))
		}
		if g.Critical(0) != 3+2+1 || g.Critical(1) != 4 {
			t.Errorf("critical path = %d + %d events, want 6 + 4", g.Critical(0), g.Critical(1))
		}
		if a.Events() != 7 || b.Events() != 8 {
			t.Errorf("engine events %d, %d; want 7, 8", a.Events(), b.Events())
		}
	})
}

// barrierTrial is everything observable about one run of the random
// program that a Group and a plain sequential loop must agree on:
// per-shard execution order, the shared clock, the event total and the
// number of epochs — and, between two grouped drivers, which epochs each
// shard was dispatched in.
type barrierTrial struct {
	orders     [][]string
	epochs     uint64
	events     uint64
	now        Time
	dispatched []uint64
}

// The drivers of runBarrierTrial.
const (
	trialSequential = iota // the reference: every engine run to each barrier by a plain loop
	trialGrouped           // Group.RunEpoch; cross-shard events scheduled by the coordinator between epochs
	trialInbox             // Group.RunEpoch; cross-shard events wait in an Inbox and the group lands them
)

// trialInboxQueues is a minimal Inbox: per shard, the scheduling calls
// waiting to be made on its engine and the earliest time among them.
type trialInboxQueues struct {
	waiting [][]func()
	first   []Time
}

func (in *trialInboxQueues) put(shard int, at Time, schedule func()) {
	if len(in.waiting[shard]) == 0 || at < in.first[shard] {
		in.first[shard] = at
	}
	in.waiting[shard] = append(in.waiting[shard], schedule)
}

func (in *trialInboxQueues) InboundAt(shard int) (Time, bool) {
	return in.first[shard], len(in.waiting[shard]) > 0
}

// Land runs on the shard's goroutine (or the coordinator's for a skipped
// shard) and touches only the shard's own row.
func (in *trialInboxQueues) Land(shard int) {
	for _, schedule := range in.waiting[shard] {
		schedule()
	}
	in.waiting[shard] = in.waiting[shard][:0]
}

// runBarrierTrial drives a randomized schedule — initial events, event
// chains scheduled from inside callbacks, and events one shard hands
// another between epochs (netsim's staging pattern) — through a Group,
// with the handed-over events either scheduled by the coordinator or left
// in an Inbox for the group to land, or, as the reference, through the
// same engines run one after the other to each barrier by a plain loop.
// Everything is a pure function of (shards, seed): epoch windows derive
// from the group's NextAt, which counts what waits in the inbox, so the
// rng stream stays aligned across the drivers.
func runBarrierTrial(mode, shards int, seed int64) barrierTrial {
	engines := make([]*Engine, shards)
	for i := range engines {
		engines[i] = NewEngine(int64(100 + i))
	}
	// The group's accessors only read engine state between epochs, so the
	// reference driver uses them too; it never calls RunEpoch.
	g := NewGroup(engines)
	defer g.Close()
	inbox := &trialInboxQueues{waiting: make([][]func(), shards), first: make([]Time, shards)}
	if mode == trialInbox {
		g.SetInbox(inbox)
	}

	orders := make([][]string, shards)
	var sched func(i int, at Time, tag, chain int)
	sched = func(i int, at Time, tag, chain int) {
		eng := engines[i]
		eng.Schedule(at, func() {
			orders[i] = append(orders[i], fmt.Sprintf("%d/%d", eng.Now(), tag))
			if chain > 0 {
				sched(i, eng.Now().Add(Duration(1+tag%37)), tag+1000, chain-1)
			}
		})
	}

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < shards; i++ {
		for k := 0; k < 30; k++ {
			sched(i, Time(1+rng.Intn(500)), i*10000+k, rng.Intn(3))
		}
	}

	const lookahead = Duration(7)
	var epochs uint64
	for {
		at, ok := g.NextAt()
		if !ok {
			break
		}
		until := at.Add(lookahead - 1)
		if mode == trialSequential {
			for _, eng := range engines {
				eng.Run(until)
			}
		} else {
			g.RunEpoch(until)
		}
		epochs++
		// An event handed to another shard between epochs, like netsim's
		// staged arrivals: often beyond the next barrier, so an idle
		// destination is skipped while it waits. Bounded so the run
		// terminates.
		if epochs <= 200 && rng.Intn(3) == 0 {
			dst, at, tag := rng.Intn(shards), g.Now().Add(Duration(1+rng.Intn(50))), 50000+int(epochs)
			if mode == trialInbox {
				inbox.put(dst, at, func() { sched(dst, at, tag, 0) })
			} else {
				sched(dst, at, tag, 0)
			}
		}
		if epochs > 1_000_000 {
			panic("runaway barrier trial")
		}
	}
	dispatched := make([]uint64, shards)
	if mode != trialSequential {
		for i := 0; i < shards; i++ {
			if g.Dispatched(i)+g.Skipped(i) != g.Epochs() || g.Epochs() != epochs {
				panic(fmt.Sprintf("shard %d dispatched %d + skipped %d of %d epochs (%d driven)",
					i, g.Dispatched(i), g.Skipped(i), g.Epochs(), epochs))
			}
			dispatched[i] = g.Dispatched(i)
		}
	}
	return barrierTrial{orders: orders, epochs: epochs, events: g.Events(), now: g.Now(), dispatched: dispatched}
}

// TestGroupBarrierEquivalence is the randomized equivalence property for
// the epoch barrier: for identical schedules, an N-shard Group and the
// same engines stepped sequentially to each barrier produce identical
// per-shard execution orders, clocks, event totals and epoch counts — at
// every shard count, with fewer, as many and more Ps than shards, and
// whether the events shards hand each other are scheduled by the
// coordinator between epochs or wait in an Inbox that each shard lands as
// its epoch starts. The two grouped drivers must also dispatch and
// idle-skip every shard in the same epochs: a shard is skipped while what
// waits for it lies beyond the barrier, and still gets it. The trial
// itself checks that every shard was dispatched or skipped in every epoch.
func TestGroupBarrierEquivalence(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		for shards := 1; shards <= 8; shards++ {
			underWatchdog(t, groupWatchdog, func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for trial := 0; trial < 6; trial++ {
					seed := int64(shards*1000 + trial)
					want := runBarrierTrial(trialSequential, shards, seed)
					grouped := runBarrierTrial(trialGrouped, shards, seed)
					for mode, got := range map[string]barrierTrial{"grouped": grouped, "inbox": runBarrierTrial(trialInbox, shards, seed)} {
						name := fmt.Sprintf("procs=%d shards=%d seed=%d %s", procs, shards, seed, mode)
						if got.epochs != want.epochs || got.events != want.events || got.now != want.now {
							t.Errorf("%s: epochs/events/now = %d/%d/%d, sequential %d/%d/%d",
								name, got.epochs, got.events, got.now, want.epochs, want.events, want.now)
							return
						}
						for i := 0; i < shards; i++ {
							if got.dispatched[i] != grouped.dispatched[i] {
								t.Errorf("%s: shard %d dispatched in %d epochs, %d with the coordinator scheduling",
									name, i, got.dispatched[i], grouped.dispatched[i])
								return
							}
							if len(got.orders[i]) != len(want.orders[i]) {
								t.Errorf("%s: shard %d ran %d events, sequential ran %d",
									name, i, len(got.orders[i]), len(want.orders[i]))
								return
							}
							for k := range want.orders[i] {
								if got.orders[i][k] != want.orders[i][k] {
									t.Errorf("%s: shard %d diverges at %d: %s vs %s",
										name, i, k, got.orders[i][k], want.orders[i][k])
									return
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestGroupEach: fn runs once for every shard, the shards' calls are in
// flight together (each waits for the next shard's to start, which one
// goroutine running them in turn could never satisfy), everything a call
// wrote is the coordinator's to read when Each returns, and the same
// goroutines go on to run epochs. A group of one runs fn inline.
func TestGroupEach(t *testing.T) {
	underWatchdog(t, groupWatchdog, func() {
		const shards = 4
		engines := make([]*Engine, shards)
		for i := range engines {
			engines[i] = NewEngine(1)
		}
		g := NewGroup(engines)
		defer g.Close()

		for round := 0; round < 50; round++ {
			started := make([]chan struct{}, shards)
			for i := range started {
				started[i] = make(chan struct{})
			}
			calls := make([]int, shards) // calls[i] is written by shard i's call only
			g.Each(func(shard int) {
				close(started[shard])
				select {
				case <-started[(shard+1)%shards]:
				case <-time.After(groupWatchdog / 2):
					t.Errorf("round %d: shard %d's call never saw shard %d's start", round, shard, (shard+1)%shards)
				}
				calls[shard]++
				engines[shard].Schedule(engines[shard].Now().Add(1), func() { calls[shard]++ })
			})
			g.RunEpoch(g.Now().Add(1))
			for i, n := range calls {
				if n != 2 {
					t.Errorf("round %d: shard %d counted %d, want one call and one event", round, i, n)
				}
			}
		}
	})

	single := NewGroup([]*Engine{NewEngine(1)})
	defer single.Close()
	ran := -1
	single.Each(func(shard int) { ran = shard })
	if ran != 0 {
		t.Errorf("a group of one ran fn for shard %d, want 0", ran)
	}
}

// BenchmarkGroupEpoch measures raw epoch-barrier overhead: a 4-engine
// group where `busy` engines each execute exactly one event per epoch
// (the rest idle-skip). One op = one RunEpoch. solo is the window in
// which only the coordinator's shard has work (no crossing); all4 sends
// to and joins three workers.
func BenchmarkGroupEpoch(b *testing.B) {
	for _, c := range []struct {
		name string
		busy int
	}{{"solo", 1}, {"all4", 4}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			engines := make([]*Engine, 4)
			for i := range engines {
				engines[i] = NewEngine(int64(i + 1))
			}
			g := NewGroup(engines)
			defer g.Close()
			const step = Microsecond
			for i := 0; i < c.busy; i++ {
				eng := engines[i]
				var tick func()
				tick = func() { eng.After(step, tick) }
				eng.After(step, tick)
			}
			b.ResetTimer()
			until := Time(0)
			for i := 0; i < b.N; i++ {
				until = until.Add(step)
				g.RunEpoch(until)
			}
		})
	}
}
