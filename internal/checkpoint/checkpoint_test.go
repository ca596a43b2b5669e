package checkpoint

import (
	"bytes"
	"errors"
	"reflect"
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

func TestEncodingIsDeterministic(t *testing.T) {
	if !bytes.Equal(sampleSnapshot().Text(), sampleSnapshot().Text()) {
		t.Fatal("two encodings of the same state differ")
	}
}

// TestTextFormat pins the writer to the layout DESIGN.md §14 describes,
// spelled out by hand: streams an earlier build stored diff clean against
// this build's only while the layout holds.
func TestTextFormat(t *testing.T) {
	const want = `dcpim-snapshot 7
label fig3a-dcpim-load0.500 protocol dcpim seed 99 horizon_ps 2000000000 index 3 every_ps 250000000
hosts 8
shards 2
time_ps 1000000000
journals 2
engine 0 now_ps 1000000000
engine 0 ord 2
engine 0 seq 0x29
engine 0 events 900
engine 0 draws 17
engine 0 pending len 3
engine 0 pending 1000000000 0x28
engine 0 pending 1000500000 0x8000000000000003
engine 0 pending 1200000000 0xc
engine 1 now_ps 1000000000
engine 1 ord 0
engine 1 seq 0x7
engine 1 events 30
engine 1 draws 0
engine 1 pending len 0
digest 0 0xcbf29ce484222325
digest 1 0x0000000000000001
digest 2 0x0000000000000002
digest 3 0x0000000000000003
digest 4 0x0000000000000004
digest 5 0x0000000000000005
digest 6 0x0000000000000006
digest 7 0xffffffffffffffff
journal 0 len 2
journal 0 750000000 0x9
journal 0 999999999 0x27
journal 1 len 0
`
	if got := string(sampleSnapshot().Text()); got != want {
		t.Fatalf("snapshot text changed:\n%s\nwant:\n%s", got, want)
	}
	if Version != 7 {
		t.Fatalf("Version = %d; a new version needs a new spelling here", Version)
	}
}

func TestCompare(t *testing.T) {
	a := sampleSnapshot()
	if err := Compare(a, sampleSnapshot()); err != nil {
		t.Fatalf("identical snapshots: %v", err)
	}
	b := sampleSnapshot()
	b.Meta.Label = "other" // the identity line is not compared
	if err := Compare(a, b); err != nil {
		t.Fatalf("label difference should not diverge: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(s *Snapshot)
		line   int
		a, b   string
	}{
		{"time", func(s *Snapshot) { s.Meta.TimePs++ }, 5, "time_ps 1000000000", "time_ps 1000000001"},
		{"engine count", func(s *Snapshot) { s.Engines, s.Journals = s.Engines[:1], s.Journals[:1] }, 4, "shards 2", "shards 1"},
		{"journals on one side", func(s *Snapshot) { s.Journals = nil }, 6, "journals 2", "journals 0"},
		{"draws", func(s *Snapshot) { s.Engines[1].Draws++ }, 20, "engine 1 draws 0", "engine 1 draws 1"},
		{"pending key", func(s *Snapshot) { s.Engines[0].Pending[1].At += 1_000_000 }, 14,
			"engine 0 pending 1000500000 0x8000000000000003", "engine 0 pending 1001500000 0x8000000000000003"},
		{"pending count", func(s *Snapshot) { s.Engines[0].Pending = s.Engines[0].Pending[:2] }, 12,
			"engine 0 pending len 3", "engine 0 pending len 2"},
		{"digest", func(s *Snapshot) { s.Digests[7] ^= 0x10 }, 29, "digest 7 0xffffffffffffffff", "digest 7 0xffffffffffffffef"},
		{"journal", func(s *Snapshot) { s.Journals[1] = append(s.Journals[1], sim.EventRecord{}) }, 33, "journal 1 len 0", "journal 1 len 1"},
	} {
		b := sampleSnapshot()
		c.mutate(b)
		var de *DivergenceError
		if err := Compare(a, b); !errors.As(err, &de) {
			t.Errorf("%s: got %v, want a DivergenceError", c.name, err)
		} else if de.Line != c.line || de.A != c.a || de.B != c.b {
			t.Errorf("%s: diverges at line %d: %q vs %q; want line %d: %q vs %q", c.name, de.Line, de.A, de.B, c.line, c.a, c.b)
		}
	}
	b = sampleSnapshot()
	b.Engines[0].Pending[2].Seq = 13
	if err := Compare(a, b); err == nil || err.Error() !=
		`checkpoint: snapshots diverge at line 15: "engine 0 pending 1200000000 0xc" vs "engine 0 pending 1200000000 0xd"` {
		t.Errorf("error text %q does not name the line and both texts", err)
	}
}

// bump names one field of a snapshot and finds it in a fresh one.
type bump struct {
	name string
	at   func(*Snapshot) reflect.Value
}

// bumps lists every field reachable from a value of type t: each scalar,
// each slice (bumped by growing it) and the fields of its first element.
func bumps(name string, t reflect.Type, at func(*Snapshot) reflect.Value) []bump {
	switch t.Kind() {
	case reflect.Struct:
		var out []bump
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			out = append(out, bumps(name+"."+f.Name, f.Type, func(s *Snapshot) reflect.Value { return at(s).Field(i) })...)
		}
		return out
	case reflect.Slice:
		first := func(s *Snapshot) reflect.Value { return at(s).Index(0) }
		return append([]bump{{name, at}}, bumps(name+"[0]", t.Elem(), first)...)
	default:
		return []bump{{name, at}}
	}
}

// apply changes v in place: a number by one, a string by a suffix, a
// slice by one zero element.
func apply(t *testing.T, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	default:
		t.Fatalf("%s: no bump for kind %s; teach apply the new field's kind", name, v.Kind())
	}
}

// TestEveryFieldIsWritten bumps each field of Snapshot, sim.EngineState
// and sim.EventRecord in turn. Every bump must change the text, and every
// bump outside the identity line must be what Compare reports. A field
// added later but not written fails here.
func TestEveryFieldIsWritten(t *testing.T) {
	identity := map[string]bool{
		"Snapshot.Meta.Label": true, "Snapshot.Meta.Protocol": true, "Snapshot.Meta.Seed": true,
		"Snapshot.Meta.HorizonPs": true, "Snapshot.Meta.Index": true, "Snapshot.Meta.EveryPs": true,
	}
	ref := sampleSnapshot()
	all := bumps("Snapshot", reflect.TypeOf(*ref), func(s *Snapshot) reflect.Value { return reflect.ValueOf(s).Elem() })
	seen := map[string]bool{}
	for _, b := range all {
		s := sampleSnapshot()
		apply(t, b.name, b.at(s))
		seen[b.name] = true
		if bytes.Equal(s.Text(), ref.Text()) {
			t.Errorf("%s: bumping it leaves the text unchanged", b.name)
		}
		err := Compare(ref, s)
		if identity[b.name] != (err == nil) {
			t.Errorf("%s (identity %v): Compare = %v", b.name, identity[b.name], err)
		}
	}
	for _, name := range []string{"Snapshot.Meta.Label", "Snapshot.Engines[0].Now", "Snapshot.Engines[0].Pending[0].Seq",
		"Snapshot.Digests[0]", "Snapshot.Journals[0][0].At"} {
		if !seen[name] {
			t.Errorf("the walk never bumped %s", name)
		}
	}
}
