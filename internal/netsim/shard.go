package netsim

import (
	"fmt"
	"time"
	"unsafe"

	"dcpim/internal/sim"
)

// Sharded execution splits one fabric across several engines along the
// topology's Boundary links (rack↔spine, pod↔core): every device lives
// on exactly one shard and all of its events run on that shard's engine.
// Epochs advance all shards to a common barrier less than one lookahead
// window (the least latency of anything the fabric can stage across the
// cut, see NewSharded) past the earliest pending event, so no shard can
// observe an effect from another shard's current epoch. Packets and PFC
// frames crossing a boundary link are staged by their source shard during
// the epoch and scheduled on the destination engine by the destination
// shard itself as its next epoch starts (Land), keyed by (directed link
// id, link sequence) in the engine's arrival band — an ordering derived
// from simulation identity, not insertion order, so event execution order
// is identical at every shard count. One shard runs the same epochs, with
// nothing staged.
//
// A shard stages into one append-only log per epoch parity, whose records
// are threaded into one chain per destination (stagingLog). During an
// epoch of parity p a shard appends only to its logs[p], while every
// destination follows its own chain through every source's logs[1-p] —
// the arrivals of the epoch before — clearing each record it lands and
// then its chain head. Destinations write disjoint records and heads, the
// source only its other log, so nothing needs a lock. The invariant: a
// shard's logs[p] has been landed by every destination when the shard's
// next epoch of parity p starts, and only then does the shard reset it,
// as that epoch's Land on its own goroutine, or on the coordinator's when
// it is idle-skipped (sim.Group.RunEpoch). It holds because every
// destination lands the logs[1-p] chains addressed to it during the epoch
// of parity p, and RunSynced lands the last epoch's chains itself before
// it calls atSync or returns, which is why every capture point still sees
// staging empty. A log so holds one epoch's arrivals, and its backing
// array grows to the most its shard stages in an epoch, for all
// destinations together.

// shardState is the per-shard slice of the fabric: engine, disjoint
// counters, and outbound staging queues.
type shardState struct {
	id       int
	fab      *Fabric
	eng      *sim.Engine
	counters *Counters     // aliases Fabric.Counters when single-shard
	logs     [2]stagingLog // cross-shard arrivals staged, by epoch parity
	staged   uint64        // cross-shard arrivals landed ON this shard
	// maxQueued is the high-water mark of queuedBytes over the shard's
	// switch ports (outPort.enqueueAt), read by Fabric.MaxPortQueue.
	maxQueued int64

	// Constant-delay lanes on eng (sim.Lane), one per distinct delay: the
	// host stack, the switch traversal (only where a hop into a switch is
	// two events, hopPair; nil otherwise), serialization + propagation of
	// an MTU or a header on each kind of link this shard's ports drive,
	// and the protocol clocks asked for through Host.Lane. The events in
	// flight are engine state, captured there.
	hostLane *sim.Lane
	swLane   *sim.Lane
	lanes    []shardLane

	// classes is the slab of the shard's port classes (portClass), a
	// handful per shard. It is never grown in place, so a port's class
	// pointer stays valid.
	classes []portClass // static link parameters and lane wiring

	// faults holds the injected loss parameters of the shard's faulty
	// ports (outPort.setLoss), nil until the first. Only the shard's own
	// goroutine writes it, and nothing ranges over it.
	faults map[*outPort]linkFault
}

// portClass returns the shard's class equal to c, adding it on first
// request. A full slab is replaced, not grown: the ports keep the old one
// alive, and a class met again after that is added a second time, which
// costs 48 bytes and changes nothing (no topology here has more than
// eight classes on a shard).
func (s *shardState) portClass(c portClass) *portClass {
	c.sh = s
	for i := range s.classes {
		if s.classes[i] == c {
			return &s.classes[i]
		}
	}
	if len(s.classes) == cap(s.classes) {
		s.classes = make([]portClass, 0, 8)
	}
	s.classes = append(s.classes, c)
	return &s.classes[len(s.classes)-1]
}

// shardLane indexes one of the shard's lanes by its delay.
type shardLane struct {
	d    sim.Duration
	lane *sim.Lane
}

// lane returns the shard's lane of delay d, creating it on first request.
// A shard has a handful of distinct delays (two per link class plus the
// two device latencies), so wiring scans them instead of hashing.
func (s *shardState) lane(d sim.Duration) *sim.Lane {
	for i := range s.lanes {
		if s.lanes[i].d == d {
			return s.lanes[i].lane
		}
	}
	l := s.eng.NewLane(d)
	s.lanes = append(s.lanes, shardLane{d, l})
	return l
}

// stagedArrival is one cross-shard event awaiting the barrier: an
// argument-form callback plus the arrival-band key that fixes its
// execution order on the destination engine, and the link to the next
// arrival its shard staged for the same destination. 64 bytes: i, an
// ingress port index or a priority class, fits 32 bits.
type stagedArrival struct {
	at   sim.Time
	key  uint64
	fn   func(a, b any, i int)
	a, b any
	i    int32
	next int32 // 1 + the log index of the chain's next arrival; 0 ends it
}

// stagingLog holds what one shard staged during one epoch, for every
// destination, in the order it was staged. Its arrivals are threaded into
// one chain per destination, so a destination lands its own without
// reading the others'.
type stagingLog struct {
	arrivals []stagedArrival
	chains   []stagingChain // by destination shard
}

// stagingChain is one destination's thread through a log: its first and
// last arrivals (1 + their index; 0 while the chain is empty) and its
// earliest time — what the coordinator needs of the chain to size the
// next window without walking it.
type stagingChain struct {
	first, last int32
	at          sim.Time
}

// newStaging gives the shard its two logs, each with a chain for every
// one of n shards, in one allocation. A cache line of padding sits before,
// between and after the two sets of chains: the shard writes one set on
// every stage while destinations clear their heads in the other, and a
// line the two shared would move between cores on every epoch.
func (s *shardState) newStaging(n int) {
	const pad = 64 / int(unsafe.Sizeof(stagingChain{}))
	c := make([]stagingChain, 2*n+3*pad)
	s.logs[0].chains = c[pad : pad+n : pad+n]
	s.logs[1].chains = c[2*pad+n : 2*pad+2*n : 2*pad+2*n]
}

// stage queues a cross-shard arrival. Only the owning shard's goroutine
// appends to its logs during an epoch, so no locking is needed. The
// arrival must land after the epoch in flight ends: the destination shard
// is running that epoch now and may already be past an earlier instant.
// A window wider than what the fabric can stage is caught here, at its
// cause, instead of as a reordered delivery. A log grows to the shard's
// epoch high-water mark once: resetLog keeps the backing array.
func (s *shardState) stage(dst *shardState, at sim.Time, key uint64, fn func(a, b any, i int), a, b any, i int) {
	if at <= s.fab.barrier {
		panic(fmt.Sprintf("netsim: shard %d staged an arrival on shard %d at %v, inside the epoch ending at %v (window %v too wide)",
			s.id, dst.id, at, s.fab.barrier, s.fab.lookahead))
	}
	log := &s.logs[s.fab.parity]
	log.arrivals = append(log.arrivals, stagedArrival{at: at, key: key, fn: fn, a: a, b: b, i: int32(i)})
	k := int32(len(log.arrivals))
	c := &log.chains[dst.id]
	if c.first == 0 {
		c.first, c.at = k, at
	} else {
		log.arrivals[c.last-1].next = k
		c.at = min(c.at, at)
	}
	c.last = k
}

// resetLog empties the shard's log of the epoch that is starting, before
// the shard stages anything in it. Every destination landed that log in
// the epoch before; a chain still holding arrivals means one did not, and
// resetting would lose them.
func (s *shardState) resetLog(parity int) {
	log := &s.logs[parity]
	if len(log.arrivals) == 0 {
		return
	}
	for d := range log.chains {
		if log.chains[d].first != 0 {
			panic(fmt.Sprintf("netsim: shard %d resets a staging log that shard %d has not landed", s.id, d))
		}
	}
	log.arrivals = log.arrivals[:0]
}

// bandKey packs a directed boundary link's identity and its per-link
// arrival sequence into an arrival-band ordering key: link id in the
// high 23 bits (below the band bit), sequence in the low 40. Both fields
// are range-checked: an overflow would silently bleed into the other
// field and corrupt cross-shard arrival ordering. New shards gets caught
// at build time (New checks boundary counts against maxBoundaryLinks),
// but seq grows with simulated time, so the packing itself must guard.
const (
	arrSeqBits       = 40
	maxArrSeq        = 1 << arrSeqBits
	maxBoundaryLinks = 1 << 23
)

func bandKey(linkID, seq uint64) uint64 {
	if linkID >= maxBoundaryLinks {
		panic("netsim: boundary link id overflows bandKey packing")
	}
	if seq >= maxArrSeq {
		panic("netsim: per-link arrival sequence overflows bandKey packing")
	}
	return linkID<<arrSeqBits | seq
}

// Run advances the simulation to until across all shards in
// barrier-synchronized epochs, every shard landing the cross-shard
// arrivals staged for it as its next epoch starts. With one shard an
// epoch is exactly Engine.Run. Fabric.Counters is up to date and staging
// empty when it returns.
func (f *Fabric) Run(until sim.Time) { f.RunSynced(until, 0, nil) }

// RunSynced is Run with evenly spaced synchronization points: atSync(t)
// is called at every multiple t of interval up to until, with every
// event before t executed, none at t, staging empty and counters merged
// — the hook the collector samples at, so a sample stamped t holds
// [0, t) at every shard count. The epoch before a sync point ends one
// picosecond short of it, and the events at t run in the next. interval
// <= 0 disables the hook. Sync points at or before the clock were taken
// by an earlier call (checkpointing drivers call RunSynced repeatedly
// with increasing horizons), so a resumed schedule is identical to one
// uninterrupted call.
func (f *Fabric) RunSynced(until sim.Time, interval sim.Duration, atSync func(sim.Time)) {
	now := f.grp.Now()
	next := sim.Time(interval)
	for interval > 0 && next <= now {
		next = next.Add(interval)
	}
	// Epoch target: one lookahead W past the earliest pending event M,
	// minus one picosecond. Nothing runs before M — the group counts the
	// arrivals still in staging logs as pending — and whatever an event at
	// send ≥ M stages lands at send + W or later (NewSharded derives W as
	// exactly that floor) — strictly after T = M + W − 1ps, so the barrier
	// never truncates a causal chain. stage checks it per arrival against
	// the barrier published here. Nothing crosses the cut of one shard
	// (W = 0), and its epochs run to until or to just before the next
	// sync point.
	for now < until {
		t := until
		if m, ok := f.grp.NextAt(); ok && f.lookahead > 0 {
			if c := m.Add(f.lookahead) - 1; c < t {
				t = c
			}
		}
		sync := interval > 0 && next <= until && next-1 <= t
		if sync {
			t = next - 1
		}
		f.barrier = t
		f.grp.RunEpoch(t)
		// The epoch's landings emptied the other log of every shard; the
		// next epoch resets and appends there, and lands what this one
		// staged.
		f.parity = 1 - f.parity
		now = t
		if sync {
			f.landAll()
			f.mergeCounters()
			if atSync != nil {
				atSync(next)
			}
			next = next.Add(interval)
		}
	}
	f.landAll()
	f.mergeCounters()
}

// waiting returns the log src staged in the last epoch run, whose
// chains the destinations have not all landed yet.
func (f *Fabric) waiting(src *shardState) *stagingLog {
	return &src.logs[1-f.parity]
}

// InboundAt implements sim.Inbox: the earliest arrival staged for the
// shard and not landed yet. It reads one chain head per source shard,
// never the arrivals.
func (f *Fabric) InboundAt(shard int) (at sim.Time, ok bool) {
	for _, src := range f.shards {
		if c := &f.waiting(src).chains[shard]; c.first != 0 && (!ok || c.at < at) {
			at, ok = c.at, true
		}
	}
	return at, ok
}

// Land implements sim.Inbox. It resets the shard's own log of the epoch
// that is starting (resetLog), then moves every arrival the previous
// epoch staged for the shard onto the shard's engine: its chain in each
// source's log, source shards in id order (arrival-band keys make the
// heap insertion order irrelevant, but this keeps the pass fully
// deterministic), clearing each arrival and then the chain. The group
// calls it on the shard's own goroutine as its epoch starts, so the
// chains of different destinations empty side by side. An empty chain
// is only read, and a walk reads its source's log header once and counts
// in a local: a chain head shares a cache line with other destinations'
// heads, the header with the one the source appends through, and the
// count with the headers other destinations read.
func (f *Fabric) Land(shard int) {
	dst := f.shards[shard]
	dst.resetLog(f.parity)
	landed := uint64(0)
	for _, src := range f.shards {
		log := f.waiting(src)
		c := &log.chains[shard]
		if c.first == 0 {
			continue
		}
		arr := log.arrivals
		for k := c.first; k != 0; landed++ {
			s := &arr[k-1]
			dst.eng.ScheduleArrival(s.at, s.key, s.fn, s.a, s.b, int(s.i))
			k = s.next
			*s = stagedArrival{} // drop packet references
		}
		*c = stagingChain{}
	}
	dst.staged += landed
}

// landAll empties staging from the coordinator, between epochs: the chains
// of the epoch that just ran have no next epoch to land them before a
// sync point's callback or RunSynced's caller looks at the fabric.
func (f *Fabric) landAll() {
	for i := range f.shards {
		f.Land(i)
	}
}

// mergeCounters recomputes Fabric.Counters as the sum of the per-shard
// counters. No-op when single-shard (the shard's counters alias the
// fabric's). Recomputing from scratch keeps the merge idempotent, so it
// can run at every barrier and at quiescence without double counting.
func (f *Fabric) mergeCounters() {
	if len(f.shards) == 1 {
		return
	}
	var c Counters
	for _, s := range f.shards {
		sc := s.counters
		c.DataDrops += sc.DataDrops
		c.CtrlDrops += sc.CtrlDrops
		c.Trims += sc.Trims
		c.AeolusDrops += sc.AeolusDrops
		c.ECNMarks += sc.ECNMarks
		c.PFCPauses += sc.PFCPauses
		c.PFCResumes += sc.PFCResumes
		c.DeliveredData += sc.DeliveredData
		c.DeliveredCtrl += sc.DeliveredCtrl
		c.DeliveredBytes += sc.DeliveredBytes
		c.HostDrops += sc.HostDrops
		c.FaultDrops += sc.FaultDrops
	}
	f.Counters = c
}

// NumShards returns how many shards the fabric runs on.
func (f *Fabric) NumShards() int { return len(f.shards) }

// ShardStats describes one shard's share of a run — the numbers that
// quantify barrier overhead: how many epochs the shard actually had work
// in (versus idle-skipped at the barrier), how many events it executed,
// how many of them bounded an epoch, and how many cross-shard arrivals
// were staged into it, and, in a metered run, how long it was busy. A
// one-shard run is dispatched in every epoch and all its events are
// critical. The counters are maintained unconditionally (their upkeep is
// noise against an epoch's hand-off); they are only formatted when a
// caller reads them here.
type ShardStats struct {
	Shard      int
	Events     uint64 // events executed on the shard's engine
	Pending    int    // events still queued (0 after a drained run)
	Staged     uint64 // cross-shard arrivals landed on this shard
	Dispatched uint64 // epochs the shard had work inside the window
	Skipped    uint64 // epochs the shard was idle and only advanced its clock
	// Critical counts the events the shard executed in the epochs where no
	// shard executed more. Its sum over shards is the run's critical path:
	// total events over that sum is the speedup a core per shard and a free
	// barrier would give, a count that repeats exactly for a seed.
	Critical uint64
	// Busy is the wall time the shard spent inside its epochs, landing
	// its arrivals and running its engine: a clock reading, zero unless
	// the run is metered (sim.Group.SetClock).
	Busy time.Duration
}

// ShardStats returns per-shard barrier-overhead counters, indexed by
// shard id. Epochs() gives the common denominator.
func (f *Fabric) ShardStats() []ShardStats {
	out := make([]ShardStats, len(f.shards))
	for i, s := range f.shards {
		out[i] = ShardStats{
			Shard:      i,
			Events:     s.eng.Events(),
			Pending:    s.eng.Pending(),
			Staged:     s.staged,
			Dispatched: f.grp.Dispatched(i),
			Skipped:    f.grp.Skipped(i),
			Critical:   f.grp.Critical(i),
			Busy:       f.grp.Busy(i),
		}
	}
	return out
}

// Epochs returns the number of barriers executed. One shard runs epochs
// too: one per sync point and one to the horizon of each Run.
func (f *Fabric) Epochs() uint64 { return f.grp.Epochs() }

// Lookahead returns the conservative synchronization window: the least
// time between an event on one shard and the earliest arrival it can
// stage on another, over the links that cross shards — propagation plus
// a header's serialization and the peer's SwitchDelay for the fused data
// forward, the bare propagation delay when PFC frames can cross. It is 0
// when nothing crosses (one shard), and epochs then end only at sync
// points and horizons.
func (f *Fabric) Lookahead() sim.Duration { return f.lookahead }

// ShardOfHost returns the shard owning host h.
func (f *Fabric) ShardOfHost(h int) int { return int(f.part.HostShard[h]) }

// HostEngine returns the engine host h's events run on. Protocol code
// reaches it through Host.Engine; fault installers use this form.
func (f *Fabric) HostEngine(h int) *sim.Engine { return f.hosts[h].sh.eng }

// SwitchEngine returns the engine switch sw's events run on.
func (f *Fabric) SwitchEngine(sw int) *sim.Engine { return f.switches[sw].sh.eng }

// deviceSeed derives a per-device RNG seed from the run seed (splitmix64
// finalizer). Every random draw a device makes comes from its own
// stream, so draw order — and therefore every sampled value — does not
// depend on how devices interleave across shards.
func deviceSeed(seed int64, kind, id int) int64 {
	x := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(kind)<<32|uint64(uint32(id))+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
