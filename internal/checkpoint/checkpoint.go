// Package checkpoint owns the snapshot: what it holds, how it is written
// as text, and how two snapshots compare. It is the only package that
// writes or compares one.
//
// Snapshots are assertions, not restorable state: each engine's pending
// event keys, clock and RNG position, the per-host delivered-stream
// digests and, optionally, per-engine journals of executed event keys,
// with physical layouts normalized away. Two runs whose snapshots at T
// are equal have the same pending events, RNG positions and delivered
// streams there — and, with journals, executed the same events. Nothing
// ever reads a snapshot back: a file is one field per line, so two
// streams are compared with diff, and two values with Compare. See
// DESIGN.md §14.
package checkpoint

import (
	"bytes"
	"fmt"
	"strconv"

	"dcpim/internal/sim"
)

// Version is the snapshot format version, written on a file's first line.
// A change to what a snapshot holds or how it is written bumps it, so
// that a diff of two builds' streams names the format change first.
const Version = 8

// Meta identifies what a snapshot is of: the run's identity and the
// snapshot's position in it. All of it but TimePs is written on the
// identity line, which Compare skips: two streams of one spec may be
// labeled differently, and a different spec shows up in the state itself.
type Meta struct {
	Label     string // run label (file stem; informational)
	Protocol  string
	Seed      int64
	HorizonPs int64 // run horizon, picoseconds
	TimePs    int64 // simulation time this snapshot was taken at
	Index     int   // snapshot ordinal within the run (0-based)
	EveryPs   int64 // checkpoint cadence, picoseconds
}

// Snapshot is one run's state at Meta.TimePs.
type Snapshot struct {
	Meta    Meta
	Engines []sim.EngineState // one per shard, in shard order
	Digests []uint64          // per-host delivered-stream digests
	// Journals is nil, or holds one journal per engine: the key of every
	// event it executed since the previous snapshot.
	Journals [][]sim.EventRecord
}

// identityLine is the 1-based line that holds the run's identity.
const identityLine = 2

// Text renders the snapshot, one field per line, in this order: the
// format line, the identity line, the host, shard, time and journal
// counts; each engine's now, seq, events, draws and pending keys;
// the per-host digests; then the journals. Every line names its section,
// a list's length precedes its records, and a record line carries no
// ordinal, so diff aligns an inserted event rather than shifting every
// later line. Times are picoseconds and seqs hex. The text is a pure
// function of the snapshot, so equal states write equal files.
func (s *Snapshot) Text() []byte {
	m := &s.Meta
	b := fmt.Appendf(nil, "dcpim-snapshot %d\n", Version)
	b = fmt.Appendf(b, "label %s protocol %s seed %d horizon_ps %d index %d every_ps %d\n",
		m.Label, m.Protocol, m.Seed, m.HorizonPs, m.Index, m.EveryPs)
	b = fmt.Appendf(b, "hosts %d\nshards %d\ntime_ps %d\njournals %d\n",
		len(s.Digests), len(s.Engines), m.TimePs, len(s.Journals))
	for i := range s.Engines {
		e := &s.Engines[i]
		b = fmt.Appendf(b, "engine %d now_ps %d\nengine %d seq %#x\n"+
			"engine %d events %d\nengine %d draws %d\n",
			i, int64(e.Now), i, e.Seq, i, e.Events, i, e.Draws)
		b = records(b, "engine "+strconv.Itoa(i)+" pending", e.Pending)
	}
	for h, d := range s.Digests {
		b = fmt.Appendf(b, "digest %d 0x%016x\n", h, d)
	}
	for i, j := range s.Journals {
		b = records(b, "journal "+strconv.Itoa(i), j)
	}
	return b
}

// records appends a list of event keys under section: its length, then
// one "<section> <ps> <seq>" line per key.
func records(b []byte, section string, rs []sim.EventRecord) []byte {
	b = fmt.Appendf(b, "%s len %d\n", section, len(rs))
	for _, r := range rs {
		b = append(b, section...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(r.At), 10)
		b = append(b, " 0x"...)
		b = strconv.AppendUint(b, r.Seq, 16)
		b = append(b, '\n')
	}
	return b
}

// DivergenceError reports the first line, below the identity line, on
// which two snapshots' texts differ.
type DivergenceError struct {
	Line int    // 1-based line number, the same in both texts
	A, B string // the two lines, first snapshot's first; "" past a text's end
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("checkpoint: snapshots diverge at line %d: %q vs %q", e.Line, e.A, e.B)
}

// Compare renders both snapshots and returns nil when they agree below
// the identity line, or a *DivergenceError naming the first line that
// differs. Two snapshots of one identity compare equal exactly when
// their files are byte-identical.
func Compare(a, b *Snapshot) error {
	la := bytes.Split(a.Text(), []byte("\n"))
	lb := bytes.Split(b.Text(), []byte("\n"))
	// la[identityLine] is the line below the identity line (1-based).
	for i := identityLine; i < len(la) || i < len(lb); i++ {
		var x, y []byte
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if !bytes.Equal(x, y) {
			return &DivergenceError{Line: i + 1, A: string(x), B: string(y)}
		}
	}
	return nil
}
