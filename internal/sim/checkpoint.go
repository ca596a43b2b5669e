package sim

import (
	"math/rand"
	"sort"
)

// Checkpoint support. Events hold Go closures, which cannot be
// serialized; what CAN be captured exactly is everything that orders
// future execution and randomness — the clock, the sequence allocator,
// the (time, seq) key of every pending event, and the RNG position.
// CaptureState returns that as plain data; the snapshot's text lives in
// internal/checkpoint. Nothing restores it: two runs' snapshot streams
// are compared (checkpoint.Compare, or diff on their files), and agree
// exactly when the runs executed identically.
// Lanes hold ordinary pending events — where an event is stored is
// physical layout — so capture lists their records with the heap's.

// EventRecord is the execution-order key of one event: its timestamp and
// its full seq word (band bit included, so band-1 arrival keys are
// preserved verbatim).
type EventRecord struct {
	At  Time
	Seq uint64
}

// EngineState is a complete logical snapshot of one engine: everything
// that determines its future behavior, with physical layout (heap array
// order, lane blocks, free lists) normalized away. Two engines
// with equal EngineStates execute identically from here on.
type EngineState struct {
	Now    Time
	Seq    uint64 // next band-0 sequence number
	Events uint64 // events executed so far
	Draws  uint64 // RNG draws consumed from the seeded source
	// Pending holds every queued event in execution order (sorted by
	// (At, Seq)), both bands merged.
	Pending []EventRecord
}

// CaptureState snapshots the engine. Pure reads: the heap and the lanes
// are walked without popping, so capture at a barrier never perturbs the
// run — the property that lets periodic checkpointing coexist with
// byte-identity goldens.
func (e *Engine) CaptureState() EngineState {
	st := EngineState{
		Now:    e.now,
		Seq:    e.seq,
		Events: e.nEvent,
		Draws:  e.src.Draws(),
	}
	st.Pending = make([]EventRecord, 0, e.Pending())
	for _, h := range e.q {
		st.Pending = append(st.Pending, EventRecord{At: h.at, Seq: h.seq})
	}
	for _, l := range e.lanes {
		b, k := l.head, l.hi
		for range l.n {
			if k == laneBlockRecs {
				b, k = b.next, 0
			}
			st.Pending = append(st.Pending, EventRecord{At: b.recs[k].at, Seq: b.recs[k].seq})
			k++
		}
	}
	sort.Slice(st.Pending, func(i, j int) bool {
		a, b := st.Pending[i], st.Pending[j]
		return a.At < b.At || (a.At == b.At && a.Seq < b.Seq)
	})
	return st
}

// StartJournal begins recording the (At, Seq) key of every executed
// event. Journaled snapshots use it to name the first diverging event;
// costs one slice append per event while on, nothing while off.
func (e *Engine) StartJournal() {
	e.journalOn = true
	e.journal = e.journal[:0]
}

// TakeJournal returns the events recorded since StartJournal and resets
// the window (recording stays on).
func (e *Engine) TakeJournal() []EventRecord {
	j := e.journal
	e.journal = nil
	return j
}

// CountingSource is a deterministic rand.Source64 that counts how many
// values have been drawn, making the RNG position part of capturable
// state. Its stream is rand.NewSource(seed)'s, value for value: Int63 and
// Uint64 each take one step, as they do on that source.
//
// Every host and switch owns a stream, and most draw few values or none
// (a core switch routes without randomness, a dcPIM host draws only to
// shuffle several candidates), while math/rand's source fills a 4.9 KB
// register when seeded. So the first 273 draws are computed from two
// 4-byte cursors instead (lazyrand.go), and only a stream that draws a
// 274th value builds the source and replays its prefix. The cursors also
// encode the seed, which keeps the struct at 32 bytes. Draws() counts the
// same either way.
type CountingSource struct {
	src       rand.Source64 // nil until the stream outlives its lazy prefix
	n         uint64
	feed, tap uint32 // lazy cursors (lazyrand.go); zero where none applies
}

// NewCountingSource returns a counting source over rand.NewSource(seed).
func NewCountingSource(seed int64) *CountingSource {
	c := &CountingSource{}
	c.Seed(seed)
	return c
}

// materialise builds the source and replays the draws taken lazily. It
// runs at most once per stream: every later draw finds the source built.
func (c *CountingSource) materialise() {
	src := rand.NewSource(seedOf(c.feed, c.n)).(rand.Source64)
	for i := uint64(0); i < c.n; i++ {
		src.Uint64()
	}
	c.src = src
}

// Int63 draws one value.
func (c *CountingSource) Int63() int64 {
	if c.src == nil {
		return int64(c.unbuilt() &^ (1 << 63))
	}
	c.n++
	return c.src.Int63()
}

// Uint64 draws one value.
func (c *CountingSource) Uint64() uint64 {
	if c.src == nil {
		return c.unbuilt()
	}
	c.n++
	return c.src.Uint64()
}

// unbuilt draws one value while the source is not built: from the
// cursors during the lazy prefix, after it by building the source.
func (c *CountingSource) unbuilt() uint64 {
	if c.n < regTap && c.feed != 0 {
		k := c.n
		c.n++
		return (word(&c.feed) ^ cooked[regFeed-1-k]) + (word(&c.tap) ^ cooked[regLen-1-k])
	}
	c.materialise()
	c.n++
	return c.src.Uint64()
}

// Seed reseeds the source and resets the draw count.
func (c *CountingSource) Seed(seed int64) {
	c.src, c.n = nil, 0
	c.feed, c.tap = cursors(seed)
}

// Draws returns the number of values drawn so far.
func (c *CountingSource) Draws() uint64 {
	return c.n
}
