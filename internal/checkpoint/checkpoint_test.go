package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func sampleSnapshot() *Snapshot {
	s := &Snapshot{Meta: Meta{
		Version: Version, Label: "fig3a-dcpim-load0.500", Protocol: "dcpim",
		Seed: 99, Hosts: 16, Shards: 4,
		TopoHash: 0xdeadbeefcafe, SpecHash: 0x1234567890ab,
		HorizonPs: 2_000_000_000, TimePs: 1_000_000_000, Index: 3, EveryPs: 250_000_000,
	}}
	s.AddSection("engine/0", []byte{1, 2, 3, 4, 5})
	s.AddSection("engine/1", nil)
	s.AddSection("digest", bytes.Repeat([]byte{0xaa, 0x55}, 300))
	return s
}

func TestRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Meta != s.Meta {
		t.Fatalf("meta round-trip: got %+v want %+v", got.Meta, s.Meta)
	}
	if len(got.Sections) != len(s.Sections) {
		t.Fatalf("sections: got %d want %d", len(got.Sections), len(s.Sections))
	}
	for i, sec := range s.Sections {
		if got.Sections[i].Name != sec.Name || !bytes.Equal(got.Sections[i].Data, sec.Data) {
			t.Fatalf("section %d differs: %q vs %q", i, got.Sections[i].Name, sec.Name)
		}
	}
	// Re-encoding the decoded snapshot must reproduce the byte stream.
	var buf2 bytes.Buffer
	if err := got.Checkpoint(&buf2); err != nil {
		t.Fatalf("re-Checkpoint: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-encoded stream is not byte-identical")
	}
}

func TestEncodingIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleSnapshot().Checkpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleSnapshot().Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodings of the same state differ")
	}
}

func TestReadErrorTaxonomy(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleSnapshot().Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

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
		for _, n := range []int{len(good) - 1, len(good) - 9, len(Magic) + 6, len(Magic) + 20} {
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
			b[len(Magic)] = v // version byte
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
		b := append(append([]byte(nil), good[:len(good)-8]...), 1, 2, 3)
		reseal(append(b, 0, 0, 0, 0, 0, 0, 0, 0))
		b = append(b, 0, 0, 0, 0, 0, 0, 0, 0)
		reseal(b)
		var ce *CorruptError
		if _, err := Read(bytes.NewReader(b)); !errors.As(err, &ce) {
			t.Fatalf("got %v, want *CorruptError", err)
		}
	})
	t.Run("section length past end", func(t *testing.T) {
		s := &Snapshot{Meta: Meta{Version: Version}}
		var e Encoder
		e.Raw([]byte(Magic))
		e.U32(Version)
		for i := 0; i < 2; i++ {
			e.String("")
		}
		for i := 0; i < 9; i++ {
			e.I64(0)
		}
		_ = s
		e.U32(1)              // one section
		e.String("x")         //
		e.U64(math.MaxUint32) // claimed length far past the buffer
		b := append(e.Data(), 0, 0, 0, 0, 0, 0, 0, 0)
		reseal(b)
		if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
}

// reseal rewrites b's trailing checksum to match its body, emulating a
// writer that produced the (possibly hostile) body legitimately.
func reseal(b []byte) {
	sum := fold(b[:len(b)-8])
	for i := 0; i < 8; i++ {
		b[len(b)-8+i] = byte(sum >> (8 * i))
	}
}

func TestCompare(t *testing.T) {
	a := sampleSnapshot()
	if err := Compare(a, sampleSnapshot()); err != nil {
		t.Fatalf("identical snapshots: %v", err)
	}

	b := sampleSnapshot()
	b.Meta.SpecHash++ // build-identity fields are excluded from Compare
	b.Meta.Label = "other"
	if err := Compare(a, b); err != nil {
		t.Fatalf("spec-hash difference should not diverge: %v", err)
	}

	b = sampleSnapshot()
	b.Meta.TimePs++
	var de *DivergenceError
	if err := Compare(a, b); !errors.As(err, &de) {
		t.Fatalf("time mismatch: got %v", err)
	}

	b = sampleSnapshot()
	b.Sections[2].Data[7] ^= 0x10
	if err := Compare(a, b); !errors.As(err, &de) {
		t.Fatalf("payload mismatch: got %v", err)
	} else if de.Section != "digest" || de.Offset != 7 {
		t.Fatalf("divergence localized to %q@%d, want digest@7", de.Section, de.Offset)
	}

	b = sampleSnapshot()
	b.Sections = b.Sections[:2]
	if err := Compare(a, b); !errors.As(err, &de) {
		t.Fatalf("section count mismatch: got %v", err)
	}
}

func TestEncoderDecoderPrimitives(t *testing.T) {
	var e Encoder
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.I64(-42)
	e.String("héllo")
	e.Bytes([]byte{9, 8, 7})

	d := NewDecoder(e.Data())
	if v := d.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %#x", v)
	}
	if v := d.U64(); v != 0x0123456789abcdef {
		t.Fatalf("U64 = %#x", v)
	}
	if v := d.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := d.String(); v != "héllo" {
		t.Fatalf("String = %q", v)
	}
	if v := d.Bytes(); !bytes.Equal(v, []byte{9, 8, 7}) {
		t.Fatalf("Bytes = %v", v)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}

	// Reads past the end latch ErrTruncated and return zero values.
	if v := d.U64(); v != 0 || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("past-end read: v=%d err=%v", v, d.Err())
	}
	if v := d.String(); v != "" {
		t.Fatalf("read after latched error: %q", v)
	}
}

func TestFoldMatchesByteFold(t *testing.T) {
	// Fold(word) must equal folding the word's little-endian bytes — the
	// invariant that lets capture code mix words while files mix bytes.
	w := uint64(0x1122334455667788)
	var b [8]byte
	for i := range b {
		b[i] = byte(w >> (8 * i))
	}
	if Fold(FoldInit, w) != fold(b[:]) {
		t.Fatal("Fold(word) != fold(bytes)")
	}
}

// FuzzRestore feeds arbitrary bytes through Read: it must return typed
// errors on anything invalid, never panic, and anything it accepts must
// re-encode byte-identically (no silent reinterpretation).
func FuzzRestore(f *testing.F) {
	var buf bytes.Buffer
	if err := sampleSnapshot().Checkpoint(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := s.Checkpoint(&out); err != nil {
			t.Fatalf("re-encode of accepted input: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted input does not round-trip: %d vs %d bytes", out.Len(), len(data))
		}
	})
}
