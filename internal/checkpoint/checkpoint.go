// Package checkpoint defines the versioned binary snapshot format. A
// Snapshot is a set of named, length-prefixed sections behind a fixed
// header and in front of a trailing checksum, so a file is either read
// back whole and verified or rejected with a typed error; nothing is
// ever applied partially.
//
// Snapshots are assertions, not restorable state: the experiment runner
// writes each engine's pending event keys, clock and RNG position, the
// per-host delivered-stream digests and, optionally, per-engine journals
// of executed event keys, all canonically (physical layouts normalized
// away). Two runs whose snapshots at T are byte-identical have the same
// pending events, RNG positions and delivered streams there — and, with
// journals, executed the same events — which is what verified replay
// (experiments.Resume) and replay bisection (experiments.Bisect)
// compare. See DESIGN.md §14.
package checkpoint

import (
	"errors"
	"fmt"
	"io"
)

// Magic identifies a dcPIM checkpoint stream; the trailing digit is the
// header layout revision (bumped only if the framing itself changes).
const Magic = "DCPIMCK1"

// Version is the current snapshot format version. Any change to what a
// section contains or how it is encoded MUST bump this — Read rejects
// mismatched versions with a VersionError rather than misinterpreting
// bytes. Versioning rules are spelled out in DESIGN.md §14.
const Version uint32 = 5

// Meta identifies what a snapshot is of: the format version, the run's
// identity (protocol, seed, topology and spec hashes, execution shape)
// and the snapshot's position in the run. Restore-side compatibility
// checks compare these before any section is interpreted.
type Meta struct {
	Version   uint32
	Label     string // run label (file stem; informational)
	Protocol  string
	Seed      int64
	Hosts     int    // topology host count
	Shards    int    // resolved shard count (≥ 1)
	TopoHash  uint64 // fingerprint of the topology shape
	SpecHash  uint64 // fingerprint of the full run spec (trace, faults, horizon)
	HorizonPs int64  // run horizon, picoseconds
	TimePs    int64  // simulation time this snapshot was taken at
	Index     int    // snapshot ordinal within the run (0-based)
	EveryPs   int64  // checkpoint cadence, picoseconds
}

// Section is one named chunk of serialized state. Section order within a
// snapshot is fixed by the writer, so Compare can walk two snapshots in
// lockstep.
type Section struct {
	Name string
	Data []byte
}

// Snapshot is one complete serialized simulation state.
type Snapshot struct {
	Meta     Meta
	Sections []Section
}

// AddSection appends a named section.
func (s *Snapshot) AddSection(name string, data []byte) {
	s.Sections = append(s.Sections, Section{Name: name, Data: data})
}

// Section returns the named section's payload.
func (s *Snapshot) Section(name string) ([]byte, bool) {
	for _, sec := range s.Sections {
		if sec.Name == name {
			return sec.Data, true
		}
	}
	return nil, false
}

// Typed error taxonomy. Restore paths distinguish these: a version or
// compatibility error means "wrong snapshot for this build/spec" (fail
// loudly, nothing to repair), corruption means the bytes themselves are
// damaged, and divergence means a verified replay did not reproduce the
// captured state — the one that turns checkpoints into a correctness
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

// CompatError reports a snapshot that parsed cleanly but belongs to a
// different run: wrong topology, spec, shard count, or protocol.
type CompatError struct {
	Field     string
	Got, Want string
}

func (e *CompatError) Error() string {
	return fmt.Sprintf("checkpoint: incompatible snapshot: %s is %s, this run has %s",
		e.Field, e.Got, e.Want)
}

// CorruptError reports structurally invalid content inside a frame that
// passed the checksum (impossible lengths, out-of-range values).
type CorruptError struct {
	Detail string
}

func (e *CorruptError) Error() string { return "checkpoint: corrupt snapshot: " + e.Detail }

// DivergenceError reports the first point where two snapshots of the
// same nominal state disagree — either a failed resume-equivalence proof
// or the bisection target between two builds.
type DivergenceError struct {
	Section string // diverging section name ("" = section list shape)
	Offset  int    // first differing byte within the section (-1 = length/name)
	Detail  string
}

func (e *DivergenceError) Error() string {
	if e.Section == "" {
		return "checkpoint: snapshots diverge: " + e.Detail
	}
	return fmt.Sprintf("checkpoint: snapshots diverge in section %q at byte %d: %s",
		e.Section, e.Offset, e.Detail)
}

// Compare returns nil when the two snapshots capture identical state,
// or a *DivergenceError naming the first differing section. Meta fields
// that identify the build or spec (SpecHash, Label) are deliberately NOT
// compared: bisection compares snapshots across builds, where those
// legitimately differ. Time and shape must agree.
func Compare(a, b *Snapshot) error {
	if a.Meta.TimePs != b.Meta.TimePs {
		return &DivergenceError{Detail: fmt.Sprintf("times %d vs %d ps", a.Meta.TimePs, b.Meta.TimePs)}
	}
	if len(a.Sections) != len(b.Sections) {
		return &DivergenceError{Detail: fmt.Sprintf("%d vs %d sections", len(a.Sections), len(b.Sections))}
	}
	for i, sa := range a.Sections {
		sb := b.Sections[i]
		if sa.Name != sb.Name {
			return &DivergenceError{Detail: fmt.Sprintf("section %d named %q vs %q", i, sa.Name, sb.Name)}
		}
		if len(sa.Data) != len(sb.Data) {
			return &DivergenceError{Section: sa.Name, Offset: -1,
				Detail: fmt.Sprintf("lengths %d vs %d", len(sa.Data), len(sb.Data))}
		}
		for j := range sa.Data {
			if sa.Data[j] != sb.Data[j] {
				return &DivergenceError{Section: sa.Name, Offset: j,
					Detail: fmt.Sprintf("%#02x vs %#02x", sa.Data[j], sb.Data[j])}
			}
		}
	}
	return nil
}

// Checkpoint serializes the snapshot to w: magic, version, meta, the
// sections in order, and a trailing FNV-1a checksum over everything
// before it. The byte stream is a pure function of the snapshot's
// contents — no timestamps, no map iteration — so equal states produce
// equal files.
func (s *Snapshot) Checkpoint(w io.Writer) error {
	var e Encoder
	e.Raw([]byte(Magic))
	e.U32(Version)
	e.String(s.Meta.Label)
	e.String(s.Meta.Protocol)
	e.I64(s.Meta.Seed)
	e.I64(int64(s.Meta.Hosts))
	e.I64(int64(s.Meta.Shards))
	e.U64(s.Meta.TopoHash)
	e.U64(s.Meta.SpecHash)
	e.I64(s.Meta.HorizonPs)
	e.I64(s.Meta.TimePs)
	e.I64(int64(s.Meta.Index))
	e.I64(s.Meta.EveryPs)
	e.U32(uint32(len(s.Sections)))
	for _, sec := range s.Sections {
		e.String(sec.Name)
		e.Bytes(sec.Data)
	}
	e.U64(fold(e.buf))
	_, err := w.Write(e.buf)
	return err
}

// maxSnapshotBytes bounds how much Read will buffer — far above any real
// snapshot, low enough that a corrupt length field cannot demand an
// absurd allocation.
const maxSnapshotBytes = 1 << 31

// Read parses a snapshot from r. The whole stream is read and verified —
// magic, version, framing, checksum — before any content is returned, so
// a failed Read never yields a partially valid snapshot. All errors are
// typed: ErrBadMagic, *VersionError, ErrTruncated, ErrChecksum, or
// *CorruptError.
func Read(r io.Reader) (*Snapshot, error) {
	buf, err := io.ReadAll(io.LimitReader(r, maxSnapshotBytes))
	if err != nil {
		return nil, err
	}
	if len(buf) < len(Magic)+4+8 {
		if len(buf) >= len(Magic) && string(buf[:len(Magic)]) != Magic {
			return nil, ErrBadMagic
		}
		return nil, ErrTruncated
	}
	if string(buf[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	body, sum := buf[:len(buf)-8], buf[len(buf)-8:]
	d := Decoder{buf: body}
	d.off = len(Magic)
	if got := uint64(sum[0]) | uint64(sum[1])<<8 | uint64(sum[2])<<16 | uint64(sum[3])<<24 |
		uint64(sum[4])<<32 | uint64(sum[5])<<40 | uint64(sum[6])<<48 | uint64(sum[7])<<56; got != fold(body) {
		return nil, ErrChecksum
	}
	if v := d.U32(); v != Version {
		if d.err != nil {
			return nil, ErrTruncated
		}
		return nil, &VersionError{Got: v, Want: Version}
	}
	var s Snapshot
	s.Meta.Version = Version
	s.Meta.Label = d.String()
	s.Meta.Protocol = d.String()
	s.Meta.Seed = d.I64()
	s.Meta.Hosts = int(d.I64())
	s.Meta.Shards = int(d.I64())
	s.Meta.TopoHash = d.U64()
	s.Meta.SpecHash = d.U64()
	s.Meta.HorizonPs = d.I64()
	s.Meta.TimePs = d.I64()
	s.Meta.Index = int(d.I64())
	s.Meta.EveryPs = d.I64()
	n := d.U32()
	for i := uint32(0); i < n && d.err == nil; i++ {
		name := d.String()
		data := d.Bytes()
		if d.err == nil {
			s.AddSection(name, data)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, &CorruptError{Detail: fmt.Sprintf("%d trailing bytes", len(body)-d.off)}
	}
	return &s, nil
}

// FNV-1a 64 over a byte stream — the same fold the experiment digests
// use, chosen for stability across Go versions.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fold(b []byte) uint64 {
	h := fnvOffset
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// FoldInit is the initial value for incremental word folds (FNV-1a 64).
const FoldInit = fnvOffset

// Fold mixes one 64-bit word into an FNV-1a 64 hash, byte by byte.
// Snapshot metadata uses it to fingerprint a run's topology and spec.
func Fold(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	return h
}

// FoldBytes mixes a byte slice into an FNV-1a 64 hash (the incremental
// form of the file checksum's fold).
func FoldBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// Encoder appends little-endian primitives to a growing buffer. The zero
// value is ready to use.
type Encoder struct {
	buf []byte
}

// Data returns the encoded bytes (aliased, not copied).
func (e *Encoder) Data() []byte { return e.buf }

// Raw appends b verbatim with no length prefix.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder reads little-endian primitives from a buffer. The first framing
// violation latches an error; every later read returns zero values, so
// decode sequences can run unchecked and test err once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder reads from b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first framing error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.err = ErrTruncated
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.U32()
	b := d.take(int(n))
	return string(b)
}

// Bytes reads a length-prefixed byte slice (aliased into the buffer).
func (d *Decoder) Bytes() []byte {
	n := d.U64()
	if d.err == nil && n > uint64(d.Remaining()) {
		d.err = ErrTruncated
		return nil
	}
	return d.take(int(n))
}
