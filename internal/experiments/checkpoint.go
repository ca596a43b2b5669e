package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dcpim/internal/checkpoint"
	"dcpim/internal/sim"
)

// Checkpoint orchestration (DESIGN.md §14). Engines hold Go closures, so
// a snapshot cannot be deserialized back into a live run. It is an
// assertion instead: each engine's pending event keys, clock and RNG
// position, the per-host delivered-stream digests and, optionally, the
// keys of every event executed since the last snapshot. Snapshot streams
// are compared, never resumed from: Compare checks one pair, and Bisect
// (BisectDirs, -bisect) takes two streams of the same spec — a stored
// one and a fresh one, or two builds' — to the first diverging event.

// CheckpointSpec asks Run for periodic snapshots.
type CheckpointSpec struct {
	// Every is the snapshot cadence in simulated time (must be > 0).
	// Snapshots land at Every, 2·Every, … up to the horizon.
	Every sim.Duration
	// Dir, when non-empty, receives one <label>.ck<index>.dcpimck file
	// per snapshot.
	Dir string
	// Label names the snapshot files (sanitized like metrics labels);
	// empty defaults to "<protocol>-seed<seed>".
	Label string
	// Journal additionally records the (time, seq) key of every executed
	// event, window by window, into each snapshot — the data Bisect uses
	// to name the first diverging event. Costs one append per event.
	Journal bool
}

// label resolves the snapshot-file stem.
func (c *CheckpointSpec) label(spec RunSpec) string {
	l := c.Label
	if l == "" {
		l = fmt.Sprintf("%s-seed%d", spec.Protocol, spec.Seed)
	}
	return sanitizeLabel(l)
}

// RunCheckpointed is Run that also returns the snapshots it captured, one
// per multiple of spec.Checkpoint.Every up to the horizon (none when
// spec.Checkpoint is nil). The RunResult is byte-identical to an
// uncheckpointed run of the same spec.
func RunCheckpointed(spec RunSpec) (RunResult, []*checkpoint.Snapshot) { return run(spec, nil) }

// capture records the run's state at time at: each engine's
// EngineState, a copy of the per-host delivered-stream digests (the run
// keeps folding into rs.hostDigests) and, when enabled, each engine's
// journal since the last capture. Pure reads, so a capturing run stays
// byte-identical to a non-capturing one.
func (rs *runState) capture(at sim.Time, idx int) *checkpoint.Snapshot {
	ck := rs.spec.Checkpoint
	snap := &checkpoint.Snapshot{
		Meta: checkpoint.Meta{
			Label: ck.label(rs.spec), Protocol: rs.spec.Protocol, Seed: rs.spec.Seed,
			HorizonPs: int64(rs.spec.Horizon), TimePs: int64(at), Index: idx, EveryPs: int64(ck.Every),
		},
		Engines: make([]sim.EngineState, len(rs.engines)),
		Digests: append([]uint64(nil), rs.hostDigests...),
	}
	for i, eng := range rs.engines {
		snap.Engines[i] = eng.CaptureState()
	}
	if ck.Journal {
		snap.Journals = make([][]sim.EventRecord, len(rs.engines))
		for i, eng := range rs.engines {
			snap.Journals[i] = eng.TakeJournal()
		}
	}
	return snap
}

// writeSnapshot emits one snapshot file under ck.Dir (no-op when unset).
// File-system failures panic, matching emitMetrics: the directory is
// caller-provided configuration.
func writeSnapshot(ck *CheckpointSpec, snap *checkpoint.Snapshot) {
	if ck.Dir == "" {
		return
	}
	var buf bytes.Buffer
	err := snap.Checkpoint(&buf)
	if err == nil {
		path := filepath.Join(ck.Dir, fmt.Sprintf("%s.ck%04d.dcpimck", snap.Meta.Label, snap.Meta.Index))
		err = os.WriteFile(path, buf.Bytes(), 0o666)
	}
	if err != nil {
		panic(fmt.Sprintf("experiments: writing checkpoint: %v", err))
	}
}

// EventDivergence names the first executed event on which two journaled
// runs disagree.
type EventDivergence struct {
	Engine int // engine (shard) whose journal diverges
	Index  int // position within the diverging window's journal
	RefAt  sim.Time
	GotAt  sim.Time
	RefSeq uint64
	GotSeq uint64
	// RefMissing/GotMissing mark a one-sided event: that side's journal
	// ended before the other's at Index.
	RefMissing, GotMissing bool
}

// BisectReport localizes the first divergence between two snapshot
// streams of the same spec (typically two builds).
type BisectReport struct {
	FirstBad    int      // index of the first diverging snapshot
	WindowStart sim.Time // last agreeing snapshot time (0 = run start)
	WindowEnd   sim.Time // time of the first diverging snapshot
	// Section, Field and Detail name the first diverging field of that
	// snapshot, as checkpoint.DivergenceError does.
	Section, Field, Detail string
	// Event is the first diverging executed event, when both snapshot
	// streams carry journals; nil when they don't or when event keys
	// agree (a same-events, different-state build difference).
	Event *EventDivergence
}

// errNoDivergence is Bisect's refusal when two streams agree.
var errNoDivergence = errors.New("experiments: snapshot streams agree at every common checkpoint — nothing to bisect")

// Bisect binary-searches two snapshot streams for the first diverging
// snapshot, then scans that snapshot's journals for the first diverging
// event. Determinism makes divergence monotone — once state differs it
// stays different — which is what licenses the binary search.
func Bisect(ref, got []*checkpoint.Snapshot) (BisectReport, error) {
	n := len(ref)
	if len(got) < n {
		n = len(got)
	}
	if n == 0 {
		return BisectReport{}, errors.New("experiments: bisect needs at least one snapshot on each side")
	}
	if checkpoint.Compare(ref[n-1], got[n-1]) == nil {
		return BisectReport{}, errNoDivergence
	}
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if checkpoint.Compare(ref[mid], got[mid]) != nil {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	rep := BisectReport{FirstBad: lo, WindowEnd: sim.Time(ref[lo].Meta.TimePs)}
	if lo > 0 {
		rep.WindowStart = sim.Time(ref[lo-1].Meta.TimePs)
	}
	var de *checkpoint.DivergenceError
	if errors.As(checkpoint.Compare(ref[lo], got[lo]), &de) {
		rep.Section, rep.Field, rep.Detail = de.Section, de.Field, de.Detail
	}
	rep.Event = firstEventDivergence(ref[lo], got[lo])
	return rep, nil
}

// firstEventDivergence walks the per-engine journals of the first
// diverging snapshot pair and returns the earliest event-key mismatch,
// or nil when journals are absent or agree.
func firstEventDivergence(a, b *checkpoint.Snapshot) *EventDivergence {
	for e := 0; e < len(a.Journals) && e < len(b.Journals); e++ {
		ja, jb := a.Journals[e], b.Journals[e]
		limit := min(len(ja), len(jb))
		for i := 0; i < limit; i++ {
			if ja[i] != jb[i] {
				return &EventDivergence{Engine: e, Index: i,
					RefAt: ja[i].At, GotAt: jb[i].At, RefSeq: ja[i].Seq, GotSeq: jb[i].Seq}
			}
		}
		if len(ja) != len(jb) {
			ev := &EventDivergence{Engine: e, Index: limit}
			if limit < len(ja) {
				ev.RefAt, ev.RefSeq, ev.GotMissing = ja[limit].At, ja[limit].Seq, true
			} else {
				ev.GotAt, ev.GotSeq, ev.RefMissing = jb[limit].At, jb[limit].Seq, true
			}
			return ev
		}
	}
	return nil
}

// BisectDirs reads the snapshot streams two runs wrote into dirA and
// dirB (same specs, typically different builds) and, label by label,
// localizes each stream's first divergence to a snapshot window and,
// when journals are present, to a single executed event. A directory
// may hold several runs' streams (a figure writes one per cell); every
// label must be present on both sides. When no label diverges it returns
// an error saying the streams agree.
func BisectDirs(dirA, dirB string, w io.Writer) error {
	ref, err := readSnapshotDir(dirA)
	if err != nil {
		return err
	}
	got, err := readSnapshotDir(dirB)
	if err != nil {
		return err
	}
	// Both lists are sorted by label, so the first index where they
	// disagree holds a label the other side lacks: the smaller one.
	for k := 0; k < len(ref) || k < len(got); k++ {
		switch {
		case k == len(got) || (k < len(ref) && ref[k].label < got[k].label):
			return fmt.Errorf("experiments: label %s has snapshots in %s but none in %s", ref[k].label, dirA, dirB)
		case k == len(ref) || got[k].label < ref[k].label:
			return fmt.Errorf("experiments: label %s has snapshots in %s but none in %s", got[k].label, dirB, dirA)
		}
	}
	diverged := 0
	for k, r := range ref {
		g := got[k]
		rep, err := Bisect(r.snaps, g.snaps)
		if err != nil {
			if !errors.Is(err, errNoDivergence) {
				return fmt.Errorf("label %s: %w", r.label, err)
			}
			fmt.Fprintf(w, "label %s: %d vs %d snapshots, no divergence\n", r.label, len(r.snaps), len(g.snaps))
			continue
		}
		diverged++
		fmt.Fprintf(w, "label %s: %d vs %d snapshots, diverges\n", r.label, len(r.snaps), len(g.snaps))
		printBisectReport(w, rep, dirA, dirB)
	}
	if diverged == 0 {
		return fmt.Errorf("%d label(s): %w", len(ref), errNoDivergence)
	}
	return nil
}

// printBisectReport writes one label's localized divergence.
func printBisectReport(w io.Writer, rep BisectReport, dirA, dirB string) {
	fmt.Fprintf(w, "first diverging snapshot: index %d, window (%v, %v]\n",
		rep.FirstBad, rep.WindowStart, rep.WindowEnd)
	if rep.Section != "" {
		fmt.Fprintf(w, "first diverging field: %s %s: %s\n", rep.Section, rep.Field, rep.Detail)
	}
	switch ev := rep.Event; {
	case ev == nil:
		fmt.Fprintln(w, "no event-key divergence (journals absent or identical); the field above localizes the state difference")
	case ev.GotMissing:
		fmt.Fprintf(w, "first diverging event: engine %d event %d — %s has (t=%v seq=%#x), %s has none\n",
			ev.Engine, ev.Index, dirA, ev.RefAt, ev.RefSeq, dirB)
	case ev.RefMissing:
		fmt.Fprintf(w, "first diverging event: engine %d event %d — %s has (t=%v seq=%#x), %s has none\n",
			ev.Engine, ev.Index, dirB, ev.GotAt, ev.GotSeq, dirA)
	default:
		fmt.Fprintf(w, "first diverging event: engine %d event %d — (t=%v seq=%#x) vs (t=%v seq=%#x)\n",
			ev.Engine, ev.Index, ev.RefAt, ev.RefSeq, ev.GotAt, ev.GotSeq)
	}
}

// snapshotStream is one run's snapshots, ordered by index.
type snapshotStream struct {
	label string
	snaps []*checkpoint.Snapshot
}

// readSnapshotDir loads every *.dcpimck file in dir into one stream per
// Meta.Label, sorted by label.
func readSnapshotDir(dir string) ([]snapshotStream, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.dcpimck"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("experiments: no *.dcpimck snapshots in %s", dir)
	}
	snaps := make([]*checkpoint.Snapshot, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		s, err := checkpoint.Read(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		snaps = append(snaps, s)
	}
	sort.Slice(snaps, func(i, j int) bool {
		a, b := snaps[i].Meta, snaps[j].Meta
		return a.Label < b.Label || (a.Label == b.Label && a.Index < b.Index)
	})
	var streams []snapshotStream
	for _, s := range snaps {
		if n := len(streams); n == 0 || streams[n-1].label != s.Meta.Label {
			streams = append(streams, snapshotStream{label: s.Meta.Label})
		}
		last := &streams[len(streams)-1]
		last.snaps = append(last.snaps, s)
	}
	return streams, nil
}
