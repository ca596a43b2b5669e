// Package checkpoint owns the snapshot: what it holds, its versioned
// binary format, and how two snapshots compare. It is the only package
// that writes, reads or compares one.
//
// Snapshots are assertions, not restorable state: each engine's pending
// event keys, clock and RNG position, the per-host delivered-stream
// digests and, optionally, per-engine journals of executed event keys,
// with physical layouts normalized away. Two runs whose snapshots at T
// are equal have the same pending events, RNG positions and delivered
// streams there — and, with journals, executed the same events. Nothing
// is ever restored from a snapshot; two streams are compared (Compare,
// experiments.Bisect). See DESIGN.md §14.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"dcpim/internal/sim"
)

// magic identifies a dcPIM checkpoint stream; the trailing digit is the
// header layout revision (bumped only if the framing itself changes).
const magic = "DCPIMCK1"

// Version is the current snapshot format version. Any change to what a
// snapshot holds or how it is encoded MUST bump this — Read rejects
// mismatched versions with a VersionError rather than misinterpreting
// bytes. Versioning rules are spelled out in DESIGN.md §14.
//
// A v6 stream is the magic, the version, the Meta block (label,
// protocol, seed, host count, engine count, horizon, time, index,
// cadence), a section count, the sections engine/0…engine/n-1, digest
// and, when journaled, journal/0…journal/n-1, each a name and a
// length-prefixed payload, then an FNV-1a 64 checksum over everything
// before it. Integers are little-endian.
const Version uint32 = 6

// Meta identifies what a snapshot is of: the run's identity and the
// snapshot's position in it. It labels a snapshot for people and for
// BisectDirs' grouping; Compare reads only TimePs. The host and engine
// counts the format also carries are len(Digests) and len(Engines).
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

// Typed error taxonomy. A version error means "written by another
// format" (fail loudly, nothing to repair), corruption means the bytes
// themselves are damaged, and divergence means two streams that should
// agree do not — the one that turns checkpoints into a correctness
// oracle.
var (
	// ErrBadMagic reports a stream that is not a dcPIM checkpoint.
	ErrBadMagic = errors.New("checkpoint: bad magic (not a dcPIM checkpoint)")
	// ErrTruncated reports a stream that ends before its framing says it
	// should.
	ErrTruncated = errors.New("checkpoint: truncated stream")
	// ErrChecksum reports a stream whose trailing checksum does not match
	// its contents.
	ErrChecksum = errors.New("checkpoint: checksum mismatch")
)

// VersionError reports a snapshot written by a different format version.
type VersionError struct {
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: format version %d, this build reads %d", e.Got, e.Want)
}

// CorruptError reports structurally invalid content inside a frame that
// passed the checksum: sections out of order, payloads that disagree
// with their lengths, counts that disagree with the header.
type CorruptError struct {
	Detail string
}

func (e *CorruptError) Error() string { return "checkpoint: corrupt snapshot: " + e.Detail }

func corrupt(format string, a ...any) error {
	return &CorruptError{Detail: fmt.Sprintf(format, a...)}
}

// DivergenceError reports the first field, in encoding order, where two
// snapshots of the same nominal state disagree: a stored stream a fresh
// run does not reproduce, or the bisection target between two builds.
type DivergenceError struct {
	Section string // "header", "engine/<i>", "digest" or "journal/<i>"
	Field   string // e.g. "Shards", "Journals" (count), "Draws", "Pending[12]", "[3]"
	Detail  string // the two values, first snapshot's first
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("checkpoint: snapshots diverge at %s %s: %s", e.Section, e.Field, e.Detail)
}

// Compare returns nil when the two snapshots capture identical state,
// or a *DivergenceError naming the first differing field. Of Meta only
// the time is compared: two streams of one spec may be labeled
// differently, and a different spec shows up in the state itself.
func Compare(a, b *Snapshot) error {
	for _, f := range [...]struct {
		name string
		a, b int64
	}{
		{"Hosts", int64(len(a.Digests)), int64(len(b.Digests))},
		{"Shards", int64(len(a.Engines)), int64(len(b.Engines))},
		{"TimePs", a.Meta.TimePs, b.Meta.TimePs},
		{"Journals", int64(len(a.Journals)), int64(len(b.Journals))},
	} {
		if f.a != f.b {
			return &DivergenceError{Section: "header", Field: f.name, Detail: fmt.Sprintf("%d vs %d", f.a, f.b)}
		}
	}
	for i := range a.Engines {
		if err := compareEngine(i, &a.Engines[i], &b.Engines[i]); err != nil {
			return err
		}
	}
	for h, d := range a.Digests {
		if d != b.Digests[h] {
			return &DivergenceError{Section: "digest", Field: fmt.Sprintf("[%d]", h),
				Detail: fmt.Sprintf("%#016x vs %#016x", d, b.Digests[h])}
		}
	}
	for i, j := range a.Journals {
		if err := compareRecords(fmt.Sprintf("journal/%d", i), "", j, b.Journals[i]); err != nil {
			return err
		}
	}
	return nil
}

func compareEngine(i int, a, b *sim.EngineState) error {
	sec := fmt.Sprintf("engine/%d", i)
	if a.Now != b.Now {
		return &DivergenceError{Section: sec, Field: "Now", Detail: fmt.Sprintf("%v vs %v", a.Now, b.Now)}
	}
	for _, f := range [...]struct {
		name string
		a, b uint64
	}{{"Ord", a.Ord, b.Ord}, {"Seq", a.Seq, b.Seq}, {"Events", a.Events, b.Events}, {"Draws", a.Draws, b.Draws}} {
		if f.a != f.b {
			return &DivergenceError{Section: sec, Field: f.name, Detail: fmt.Sprintf("%d vs %d", f.a, f.b)}
		}
	}
	return compareRecords(sec, "Pending", a.Pending, b.Pending)
}

// compareRecords compares two event-key lists the way they are encoded:
// length first, then key by key. A journal is a section of its own, so
// its field is "".
func compareRecords(sec, field string, a, b []sim.EventRecord) error {
	if len(a) != len(b) {
		n := "len"
		if field != "" {
			n = "len(" + field + ")"
		}
		return &DivergenceError{Section: sec, Field: n, Detail: fmt.Sprintf("%d vs %d", len(a), len(b))}
	}
	for k, r := range a {
		if r != b[k] {
			return &DivergenceError{Section: sec, Field: fmt.Sprintf("%s[%d]", field, k),
				Detail: fmt.Sprintf("(t=%v, seq=%#x) vs (t=%v, seq=%#x)", r.At, r.Seq, b[k].At, b[k].Seq)}
		}
	}
	return nil
}

// Checkpoint serializes the snapshot to w in the v6 format (see
// Version). The byte stream is a pure function of the snapshot's
// contents — no timestamps, no map iteration — so equal states produce
// equal files.
func (s *Snapshot) Checkpoint(w io.Writer) error {
	if len(s.Journals) != 0 && len(s.Journals) != len(s.Engines) {
		return fmt.Errorf("checkpoint: %d journals for %d engines", len(s.Journals), len(s.Engines))
	}
	b := &writer{buf: []byte(magic)}
	b.u32(Version)
	b.str(s.Meta.Label)
	b.str(s.Meta.Protocol)
	for _, v := range [...]int64{s.Meta.Seed, int64(len(s.Digests)), int64(len(s.Engines)),
		s.Meta.HorizonPs, s.Meta.TimePs, int64(s.Meta.Index), s.Meta.EveryPs} {
		b.u64(uint64(v))
	}
	b.u32(uint32(len(s.Engines) + 1 + len(s.Journals)))
	for i := range s.Engines {
		st := &s.Engines[i]
		b.section(fmt.Sprintf("engine/%d", i), func() {
			for _, v := range [...]uint64{uint64(st.Now), st.Ord, st.Seq, st.Events, st.Draws} {
				b.u64(v)
			}
			b.records(st.Pending)
		})
	}
	b.section("digest", func() {
		b.u32(uint32(len(s.Digests)))
		for _, d := range s.Digests {
			b.u64(d)
		}
	})
	for i, j := range s.Journals {
		b.section(fmt.Sprintf("journal/%d", i), func() { b.records(j) })
	}
	b.u64(checksum(b.buf))
	_, err := w.Write(b.buf)
	return err
}

// maxSnapshotBytes bounds how much Read will buffer — far above any real
// snapshot, low enough that a corrupt length field cannot demand an
// absurd allocation.
const maxSnapshotBytes = 1 << 31

// Read parses a snapshot from r. The whole stream is read and verified —
// magic, version, checksum, then every section in the one order the
// writer emits — before anything is returned, so a failed Read never
// yields a partially valid snapshot. All errors are typed: ErrBadMagic,
// *VersionError, ErrTruncated, ErrChecksum, or *CorruptError.
func Read(r io.Reader) (*Snapshot, error) {
	buf, err := io.ReadAll(io.LimitReader(r, maxSnapshotBytes))
	if err != nil {
		return nil, err
	}
	switch {
	case len(buf) >= len(magic) && string(buf[:len(magic)]) != magic:
		return nil, ErrBadMagic
	case len(buf) < len(magic)+4+8:
		return nil, ErrTruncated
	}
	body := buf[:len(buf)-8]
	if binary.LittleEndian.Uint64(buf[len(body):]) != checksum(body) {
		return nil, ErrChecksum
	}
	c := &cursor{buf: body, off: len(magic)}
	if v := c.u32(); v != Version {
		return nil, &VersionError{Got: v, Want: Version}
	}
	s := &Snapshot{}
	s.Meta.Label = c.str()
	s.Meta.Protocol = c.str()
	s.Meta.Seed = c.i64()
	hosts := c.i64()
	shards := c.i64()
	s.Meta.HorizonPs = c.i64()
	s.Meta.TimePs = c.i64()
	s.Meta.Index = int(c.i64())
	s.Meta.EveryPs = c.i64()
	n := int64(c.u32())
	if c.err != nil {
		return nil, c.err
	}
	if shards < 0 || (n != shards+1 && n != 2*shards+1) {
		return nil, corrupt("%d sections for %d engines", n, shards)
	}
	for i := int64(0); i < shards && c.err == nil; i++ {
		var st sim.EngineState
		c.section(fmt.Sprintf("engine/%d", i), func(p *cursor) {
			st.Now = sim.Time(p.i64())
			st.Ord, st.Seq, st.Events, st.Draws = p.u64(), p.u64(), p.u64(), p.u64()
			st.Pending = p.records()
		})
		s.Engines = append(s.Engines, st)
	}
	c.section("digest", func(p *cursor) {
		s.Digests = make([]uint64, p.count(8))
		for h := range s.Digests {
			s.Digests[h] = p.u64()
		}
	})
	for i := int64(0); n > shards+1 && i < shards && c.err == nil; i++ {
		c.section(fmt.Sprintf("journal/%d", i), func(p *cursor) {
			s.Journals = append(s.Journals, p.records())
		})
	}
	switch {
	case c.err != nil:
		return nil, c.err
	case c.off != len(body):
		return nil, corrupt("%d trailing bytes", len(body)-c.off)
	case hosts != int64(len(s.Digests)):
		return nil, corrupt("header says %d hosts, digest holds %d", hosts, len(s.Digests))
	}
	return s, nil
}

// checksum is FNV-1a 64 over a byte stream, stable across Go versions.
func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// writer appends the format's little-endian primitives.
type writer struct {
	buf []byte
}

func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// str writes a string behind its 4-byte length.
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// records writes a count and then each event key as (time, seq).
func (w *writer) records(rs []sim.EventRecord) {
	w.u32(uint32(len(rs)))
	for _, r := range rs {
		w.u64(uint64(r.At))
		w.u64(r.Seq)
	}
}

// section writes a section's name, then body's output behind its 8-byte
// length.
func (w *writer) section(name string, body func()) {
	w.str(name)
	at := len(w.buf)
	w.u64(0)
	body()
	binary.LittleEndian.PutUint64(w.buf[at:], uint64(len(w.buf)-at-8))
}

// cursor reads the format's primitives. The first read past the end
// latches ErrTruncated (or whatever error a caller sets) and every later
// read returns zero values, so a decode sequence runs unchecked and tests
// err once at the end.
type cursor struct {
	buf []byte
	off int
	err error
}

func (c *cursor) remaining() int { return len(c.buf) - c.off }

func (c *cursor) take(n uint64) []byte {
	if c.err != nil {
		return nil
	}
	if n > uint64(c.remaining()) {
		c.err = ErrTruncated
		return nil
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

func (c *cursor) u32() uint32 {
	if b := c.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (c *cursor) i64() int64  { return int64(c.u64()) }
func (c *cursor) str() string { return string(c.take(uint64(c.u32()))) }

// count reads an element count and checks that that many size-byte
// elements fit in what is left; 0 once an error has latched.
func (c *cursor) count(size int) int {
	n := int(c.u32())
	if c.err == nil && n > c.remaining()/size {
		c.err = ErrTruncated
	}
	if c.err != nil {
		return 0
	}
	return n
}

// records reads what writer.records wrote.
func (c *cursor) records() []sim.EventRecord {
	rs := make([]sim.EventRecord, c.count(16))
	for k := range rs {
		rs[k] = sim.EventRecord{At: sim.Time(c.i64()), Seq: c.u64()}
	}
	return rs
}

// section reads the next section, which must be called name, and decodes
// its payload with body, which must consume it exactly.
func (c *cursor) section(name string, body func(p *cursor)) {
	got := c.str()
	p := &cursor{buf: c.take(c.u64())}
	switch {
	case c.err != nil:
	case got != name:
		c.err = corrupt("section %q where %q belongs", got, name)
	default:
		body(p)
		if p.err != nil || p.remaining() != 0 {
			c.err = corrupt("section %s does not hold what its length says", name)
		}
	}
}
