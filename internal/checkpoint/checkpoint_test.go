package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"dcpim/internal/sim"
)

// sampleSnapshot is a two-engine journaled snapshot of an 8-host run.
func sampleSnapshot() *Snapshot {
	s := &Snapshot{
		Meta: Meta{
			Label: "fig3a-dcpim-load0.500", Protocol: "dcpim", Seed: 99,
			HorizonPs: 2_000_000_000, TimePs: 1_000_000_000, Index: 3, EveryPs: 250_000_000,
		},
		Engines: []sim.EngineState{
			{Now: 1_000_000_000, Ord: 2, Seq: 41, Events: 900, Draws: 17, Pending: []sim.EventRecord{
				{At: 1_000_000_000, Seq: 40}, {At: 1_000_500_000, Seq: 1<<63 | 3}, {At: 1_200_000_000, Seq: 12},
			}},
			{Now: 1_000_000_000, Ord: 0, Seq: 7, Events: 30, Draws: 0, Pending: []sim.EventRecord{}},
		},
		Digests:  []uint64{0xcbf29ce484222325, 1, 2, 3, 4, 5, 6, 0xffffffffffffffff},
		Journals: [][]sim.EventRecord{{{At: 750_000_000, Seq: 9}, {At: 999_999_999, Seq: 39}}, {}},
	}
	return s
}

func encode(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for _, journaled := range []bool{true, false} {
		s := sampleSnapshot()
		if !journaled {
			s.Journals = nil
		}
		b := encode(t, s)
		got, err := Read(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("journaled=%v: Read: %v", journaled, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("journaled=%v: round-trip:\n got %+v\nwant %+v", journaled, got, s)
		}
		// Re-encoding the decoded snapshot must reproduce the byte stream.
		if !bytes.Equal(encode(t, got), b) {
			t.Fatalf("journaled=%v: re-encoded stream is not byte-identical", journaled)
		}
	}
}

func TestEncodingIsDeterministic(t *testing.T) {
	if !bytes.Equal(encode(t, sampleSnapshot()), encode(t, sampleSnapshot())) {
		t.Fatal("two encodings of the same state differ")
	}
}

// wire spells the v6 format out independently of the writer: little-endian
// integers, strings behind a u32 length, sections as a name and a
// u64-length-prefixed payload.
type wire struct{ b []byte }

func (w *wire) u32(v uint32) *wire { w.b = binary.LittleEndian.AppendUint32(w.b, v); return w }
func (w *wire) u64(vs ...uint64) *wire {
	for _, v := range vs {
		w.b = binary.LittleEndian.AppendUint64(w.b, v)
	}
	return w
}
func (w *wire) str(s string) *wire { w.u32(uint32(len(s))); w.b = append(w.b, s...); return w }
func (w *wire) section(name string, payload *wire) *wire {
	w.str(name).u64(uint64(len(payload.b)))
	w.b = append(w.b, payload.b...)
	return w
}
func (w *wire) keys(rs ...sim.EventRecord) *wire {
	w.u32(uint32(len(rs)))
	for _, r := range rs {
		w.u64(uint64(r.At), r.Seq)
	}
	return w
}

// header is the v6 header of sampleSnapshot's Meta with the given host,
// engine and section counts.
func header(hosts, engines, sections uint64) *wire {
	m := sampleSnapshot().Meta
	w := &wire{b: []byte("DCPIMCK1")}
	w.u32(6).str(m.Label).str(m.Protocol)
	w.u64(uint64(m.Seed), hosts, engines, uint64(m.HorizonPs), uint64(m.TimePs), uint64(m.Index), uint64(m.EveryPs))
	return w.u32(uint32(sections))
}

// seal appends the checksum over everything so far.
func (w *wire) seal() []byte { return binary.LittleEndian.AppendUint64(w.b, checksum(w.b)) }

// TestWireFormatV6 pins the writer to the v6 byte layout, so that streams
// an earlier build stored still read and compare: engine sections in
// shard order, then digest, then one journal per engine.
func TestWireFormatV6(t *testing.T) {
	s := sampleSnapshot()
	want := header(8, 2, 5)
	for i, e := range s.Engines {
		p := (&wire{}).u64(uint64(e.Now), e.Ord, e.Seq, e.Events, e.Draws).keys(e.Pending...)
		want.section([]string{"engine/0", "engine/1"}[i], p)
	}
	want.section("digest", (&wire{}).u32(8).u64(s.Digests...))
	want.section("journal/0", (&wire{}).keys(s.Journals[0]...))
	want.section("journal/1", (&wire{}).keys())
	if got := encode(t, s); !bytes.Equal(got, want.seal()) {
		t.Fatalf("v6 encoding changed:\n got %x\nwant %x", got, want.seal())
	}
	if Version != 6 {
		t.Fatalf("Version = %d; a new version needs a new spelling here", Version)
	}
}

func TestReadErrorTaxonomy(t *testing.T) {
	good := encode(t, sampleSnapshot())

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[0] ^= 0xff
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("short magic", func(t *testing.T) {
		if _, err := Read(bytes.NewReader(good[:4])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		// Any truncation corrupts the checksum or the framing; both are
		// typed errors, never a partial snapshot.
		for _, n := range []int{len(good) - 1, len(good) - 9, len(magic) + 6, len(magic) + 20} {
			_, err := Read(bytes.NewReader(good[:n]))
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) {
				t.Fatalf("truncate to %d: got %v", n, err)
			}
		}
	})
	t.Run("version mismatch", func(t *testing.T) {
		// A future writer's file, and one from before Meta lost its queue
		// field (format 2), both get the typed answer.
		for _, v := range []byte{99, 2} {
			b := append([]byte(nil), good...)
			b[len(magic)] = v // version byte
			// Re-seal so the version check (not the checksum) fires: the
			// other writer produced a valid checksum over its own version.
			reseal(b)
			var ve *VersionError
			_, err := Read(bytes.NewReader(b))
			if !errors.As(err, &ve) || ve.Got != uint32(v) || ve.Want != Version {
				t.Fatalf("got %v, want *VersionError{%d,%d}", err, v, Version)
			}
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		b := append([]byte(nil), good...)
		b[len(b)/2] ^= 0x01
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("got %v, want ErrChecksum", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		b := append(append([]byte(nil), good[:len(good)-8]...), 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0)
		reseal(b)
		var ce *CorruptError
		if _, err := Read(bytes.NewReader(b)); !errors.As(err, &ce) {
			t.Fatalf("got %v, want *CorruptError", err)
		}
	})
	t.Run("section length past end", func(t *testing.T) {
		w := header(0, 0, 1).str("digest").u64(math.MaxUint32) // claimed length far past the buffer
		if _, err := Read(bytes.NewReader(w.seal())); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	// The reader accepts the writer's one layout and nothing else: every
	// stream here is well framed and checksummed.
	digest := (&wire{}).u32(1).u64(7)
	engine := (&wire{}).u64(0, 0, 0, 0, 0).keys()
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"digest before engine", header(1, 1, 2).section("digest", digest).section("engine/0", engine).seal()},
		{"engine misnumbered", header(1, 1, 2).section("engine/1", engine).section("digest", digest).seal()},
		{"journal count not the engine count", header(1, 2, 4).section("engine/0", engine).section("engine/1", engine).
			section("digest", digest).section("journal/0", (&wire{}).keys()).seal()},
		{"header hosts disagree with digest", header(2, 1, 2).section("engine/0", engine).section("digest", digest).seal()},
		{"negative engine count", header(1, math.MaxUint64, 0).seal()},
		{"payload longer than its fields", header(1, 1, 2).section("engine/0", (&wire{}).u64(0, 0, 0, 0, 0).keys().u32(0)).
			section("digest", digest).seal()},
		{"payload shorter than its count", header(1, 1, 2).section("engine/0", (&wire{}).u64(0, 0, 0, 0, 0).u32(1)).
			section("digest", digest).seal()},
	} {
		t.Run(c.name, func(t *testing.T) {
			var ce *CorruptError
			if _, err := Read(bytes.NewReader(c.b)); !errors.As(err, &ce) {
				t.Fatalf("got %v, want *CorruptError", err)
			}
		})
	}
	t.Run("well-formed hand-built stream", func(t *testing.T) {
		s, err := Read(bytes.NewReader(header(1, 1, 2).section("engine/0", engine).section("digest", digest).seal()))
		if err != nil || len(s.Engines) != 1 || !reflect.DeepEqual(s.Digests, []uint64{7}) || s.Journals != nil {
			t.Fatalf("got %+v, %v", s, err)
		}
	})
	t.Run("latched truncation", func(t *testing.T) {
		c := &cursor{buf: (&wire{}).u32(0xdeadbeef).str("héllo").b}
		if v, s := c.u32(), c.str(); v != 0xdeadbeef || s != "héllo" || c.err != nil || c.remaining() != 0 {
			t.Fatalf("u32 %#x, str %q, err %v, %d left", v, s, c.err, c.remaining())
		}
		// Reads past the end latch ErrTruncated and return zero values.
		if v := c.u64(); v != 0 || !errors.Is(c.err, ErrTruncated) {
			t.Fatalf("past-end read: v=%d err=%v", v, c.err)
		}
		if rs := c.records(); len(rs) != 0 {
			t.Fatalf("read after latched error: %v", rs)
		}
	})
}

// reseal rewrites b's trailing checksum to match its body, emulating a
// writer that produced the (possibly hostile) body legitimately.
func reseal(b []byte) {
	binary.LittleEndian.PutUint64(b[len(b)-8:], checksum(b[:len(b)-8]))
}

func TestCompare(t *testing.T) {
	a := sampleSnapshot()
	if err := Compare(a, sampleSnapshot()); err != nil {
		t.Fatalf("identical snapshots: %v", err)
	}
	b := sampleSnapshot()
	b.Meta.Label = "other" // only the time is compared of Meta
	if err := Compare(a, b); err != nil {
		t.Fatalf("label difference should not diverge: %v", err)
	}
	for _, c := range []struct {
		name           string
		mutate         func(s *Snapshot)
		section, field string
		detail         string
	}{
		{"time", func(s *Snapshot) { s.Meta.TimePs++ }, "header", "TimePs", "1000000000 vs 1000000001"},
		{"engine count", func(s *Snapshot) { s.Engines, s.Journals = s.Engines[:1], s.Journals[:1] }, "header", "Shards", "2 vs 1"},
		{"journals on one side", func(s *Snapshot) { s.Journals = nil }, "header", "Journals", "2 vs 0"},
		{"draws", func(s *Snapshot) { s.Engines[1].Draws++ }, "engine/1", "Draws", "0 vs 1"},
		{"pending key", func(s *Snapshot) { s.Engines[0].Pending[1].At += 1_000_000 }, "engine/0", "Pending[1]",
			"(t=1000.500us, seq=0x8000000000000003) vs (t=1001.500us, seq=0x8000000000000003)"},
		{"pending count", func(s *Snapshot) { s.Engines[0].Pending = s.Engines[0].Pending[:2] }, "engine/0", "len(Pending)", "3 vs 2"},
		{"digest", func(s *Snapshot) { s.Digests[7] ^= 0x10 }, "digest", "[7]", "0xffffffffffffffff vs 0xffffffffffffffef"},
		{"journal", func(s *Snapshot) { s.Journals[1] = append(s.Journals[1], sim.EventRecord{}) }, "journal/1", "len", "0 vs 1"},
	} {
		b := sampleSnapshot()
		c.mutate(b)
		var de *DivergenceError
		if err := Compare(a, b); !errors.As(err, &de) {
			t.Errorf("%s: got %v, want a DivergenceError", c.name, err)
		} else if de.Section != c.section || de.Field != c.field || de.Detail != c.detail {
			t.Errorf("%s: diverges at %s %s: %s; want %s %s: %s", c.name, de.Section, de.Field, de.Detail, c.section, c.field, c.detail)
		}
	}
	b = sampleSnapshot()
	b.Engines[0].Pending[2].Seq = 13
	if err := Compare(a, b); err == nil || !strings.HasSuffix(err.Error(),
		"engine/0 Pending[2]: (t=1200.000us, seq=0xc) vs (t=1200.000us, seq=0xd)") {
		t.Errorf("error text %q does not name the field and both keys", err)
	}
}

// FuzzRestore feeds arbitrary bytes through Read: it must return typed
// errors on anything invalid, never panic, and anything it accepts must
// re-encode byte-identically (no silent reinterpretation).
func FuzzRestore(f *testing.F) {
	good := encode(f, sampleSnapshot())
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(good[:len(good)/2])
	unjournaled := sampleSnapshot()
	unjournaled.Journals = nil
	f.Add(encode(f, unjournaled))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			var ve *VersionError
			var ce *CorruptError
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrChecksum) &&
				!errors.As(err, &ve) && !errors.As(err, &ce) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if out := encode(t, s); !bytes.Equal(out, data) {
			t.Fatalf("accepted input does not round-trip: %d vs %d bytes", len(out), len(data))
		}
	})
}
