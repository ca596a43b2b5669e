package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"dcpim/internal/checkpoint"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// Checkpoint orchestration (DESIGN.md §14). Engines hold Go closures, so
// a snapshot cannot be deserialized back into a live run. It is an
// assertion instead: each engine's pending event keys, clock and RNG
// position, the per-host delivered-stream digests and, optionally, the
// keys of every event executed since the last snapshot. Resume is a
// verified replay: rebuild the run from its spec, advance to the
// snapshot time, prove the re-captured snapshot byte-identical, then
// continue. Two builds' snapshot streams bisect to the first diverging
// event (Bisect).

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

// RunCheckpointed executes the run in cadence-sized windows, capturing a
// snapshot at each boundary. The event stream is identical to Run's —
// windows only bound how far engines advance between captures, and
// capture itself is pure reads — so the RunResult is byte-identical to
// an uncheckpointed run of the same spec.
func RunCheckpointed(spec RunSpec) (RunResult, []*checkpoint.Snapshot) {
	ck := spec.Checkpoint
	if ck == nil || ck.Every <= 0 {
		panic("experiments: RunCheckpointed requires spec.Checkpoint with Every > 0")
	}
	rs := newRunState(spec, nil)
	defer rs.close()
	horizon := sim.Time(spec.Horizon)
	var snaps []*checkpoint.Snapshot
	idx := 0
	for t := sim.Time(0).Add(ck.Every); t <= horizon; t = t.Add(ck.Every) {
		rs.runTo(t)
		snap := rs.capture(t, idx)
		snaps = append(snaps, snap)
		writeSnapshot(ck, snap)
		idx++
	}
	rs.runTo(horizon)
	return rs.result(), snaps
}

// Resume is the verified-replay restore: it checks the snapshot is
// compatible with spec (typed CompatError/VersionError otherwise),
// rebuilds the run, replays to the snapshot time with the same window
// schedule RunCheckpointed used, proves the re-captured state
// byte-identical to the snapshot (DivergenceError otherwise), and
// continues to the horizon. It returns the completed result and the
// snapshots taken after the resume point — byte-identical to the ones
// the uninterrupted run would have produced.
func Resume(spec RunSpec, snap *checkpoint.Snapshot) (RunResult, []*checkpoint.Snapshot, error) {
	ck := spec.Checkpoint
	if ck == nil || ck.Every <= 0 {
		return RunResult{}, nil, &checkpoint.CompatError{
			Field: "checkpoint cadence", Got: "none", Want: "spec.Checkpoint with Every > 0"}
	}
	if snap.Meta.Version != checkpoint.Version {
		return RunResult{}, nil, &checkpoint.VersionError{Got: snap.Meta.Version, Want: checkpoint.Version}
	}
	if err := checkCompat(spec, snap.Meta); err != nil {
		return RunResult{}, nil, err
	}
	rs := newRunState(spec, nil)
	defer rs.close()
	horizon := sim.Time(spec.Horizon)
	at := sim.Time(snap.Meta.TimePs)
	var replayed *checkpoint.Snapshot
	idx := 0
	for t := sim.Time(0).Add(ck.Every); t <= at; t = t.Add(ck.Every) {
		rs.runTo(t)
		replayed = rs.capture(t, idx)
		idx++
	}
	if replayed == nil || replayed.Meta.TimePs != snap.Meta.TimePs {
		return RunResult{}, nil, &checkpoint.CompatError{
			Field: "snapshot time",
			Got:   fmt.Sprintf("%d ps", snap.Meta.TimePs),
			Want:  fmt.Sprintf("a positive multiple of cadence %d ps", int64(ck.Every)),
		}
	}
	if err := checkpoint.Compare(replayed, snap); err != nil {
		return RunResult{}, nil, fmt.Errorf("experiments: resume replay does not reproduce snapshot %d: %w",
			snap.Meta.Index, err)
	}
	var post []*checkpoint.Snapshot
	for t := at.Add(ck.Every); t <= horizon; t = t.Add(ck.Every) {
		rs.runTo(t)
		s := rs.capture(t, idx)
		post = append(post, s)
		writeSnapshot(ck, s)
		idx++
	}
	rs.runTo(horizon)
	return rs.result(), post, nil
}

// checkCompat rejects snapshots that belong to a different run than
// spec describes. Field order is most-specific-message first.
func checkCompat(spec RunSpec, m checkpoint.Meta) error {
	for _, c := range []struct{ field, got, want string }{
		{"protocol", m.Protocol, spec.Protocol},
		{"seed", fmt.Sprint(m.Seed), fmt.Sprint(spec.Seed)},
		{"hosts", fmt.Sprint(m.Hosts), fmt.Sprint(spec.Topo.NumHosts)},
		{"topology hash", fmt.Sprintf("%#016x", m.TopoHash), fmt.Sprintf("%#016x", topoHash(spec.Topo))},
		{"spec hash", fmt.Sprintf("%#016x", m.SpecHash), fmt.Sprintf("%#016x", specHash(spec))},
		{"shards", fmt.Sprint(m.Shards), fmt.Sprint(spec.shards())},
		{"horizon", fmt.Sprintf("%d ps", m.HorizonPs), fmt.Sprintf("%d ps", int64(spec.Horizon))},
		{"cadence", fmt.Sprintf("%d ps", m.EveryPs), fmt.Sprintf("%d ps", int64(spec.Checkpoint.Every))},
	} {
		if c.got != c.want {
			return &checkpoint.CompatError{Field: c.field, Got: c.got, Want: c.want}
		}
	}
	return nil
}

// capture records the run's state at time at: each engine's
// EngineState, the per-host delivered-stream digests and, when enabled,
// each engine's journal since the last capture. Pure reads, so a
// capturing run stays byte-identical to a non-capturing one. Section
// order is fixed: engines, digest, then journals.
func (rs *runState) capture(at sim.Time, idx int) *checkpoint.Snapshot {
	ck := rs.spec.Checkpoint
	snap := &checkpoint.Snapshot{Meta: checkpoint.Meta{
		Version:   checkpoint.Version,
		Label:     ck.label(rs.spec),
		Protocol:  rs.spec.Protocol,
		Seed:      rs.spec.Seed,
		Hosts:     rs.spec.Topo.NumHosts,
		Shards:    len(rs.engines),
		TopoHash:  topoHash(rs.spec.Topo),
		SpecHash:  specHash(rs.spec),
		HorizonPs: int64(rs.spec.Horizon),
		TimePs:    int64(at),
		Index:     idx,
		EveryPs:   int64(ck.Every),
	}}
	for i, eng := range rs.engines {
		var e checkpoint.Encoder
		encodeEngineState(&e, eng.CaptureState())
		snap.AddSection(fmt.Sprintf("engine/%d", i), e.Data())
	}
	var de checkpoint.Encoder
	de.U32(uint32(len(rs.hostDigests)))
	for _, d := range rs.hostDigests {
		de.U64(d)
	}
	snap.AddSection("digest", de.Data())
	if ck.Journal {
		for i, eng := range rs.engines {
			var e checkpoint.Encoder
			encodeJournal(&e, eng.TakeJournal())
			snap.AddSection(fmt.Sprintf("journal/%d", i), e.Data())
		}
	}
	return snap
}

func encodeEngineState(e *checkpoint.Encoder, st sim.EngineState) {
	e.I64(int64(st.Now))
	e.U64(st.Ord)
	e.U64(st.Seq)
	e.U64(st.Events)
	e.U64(st.Draws)
	e.U32(uint32(len(st.Pending)))
	for _, rec := range st.Pending {
		e.I64(int64(rec.At))
		e.U64(rec.Seq)
	}
}

func encodeJournal(e *checkpoint.Encoder, j []sim.EventRecord) {
	e.U32(uint32(len(j)))
	for _, rec := range j {
		e.I64(int64(rec.At))
		e.U64(rec.Seq)
	}
}

// decodeJournal parses a journal section; nil on malformed data (journal
// sections are advisory bisection data, not load-bearing state).
func decodeJournal(b []byte) []sim.EventRecord {
	d := checkpoint.NewDecoder(b)
	n := int(d.U32())
	if d.Err() != nil || n > d.Remaining()/16 {
		return nil
	}
	out := make([]sim.EventRecord, 0, n)
	for i := 0; i < n; i++ {
		rec := sim.EventRecord{At: sim.Time(d.I64()), Seq: d.U64()}
		if d.Err() != nil {
			return nil
		}
		out = append(out, rec)
	}
	return out
}

// writeSnapshot emits one snapshot file under ck.Dir (no-op when unset).
// File-system failures panic, matching emitMetrics: the directory is
// caller-provided configuration.
func writeSnapshot(ck *CheckpointSpec, snap *checkpoint.Snapshot) {
	if ck.Dir == "" {
		return
	}
	path := filepath.Join(ck.Dir, fmt.Sprintf("%s.ck%04d.dcpimck", snap.Meta.Label, snap.Meta.Index))
	f, err := os.Create(path)
	if err != nil {
		panic(fmt.Sprintf("experiments: writing checkpoint: %v", err))
	}
	if err := snap.Checkpoint(f); err != nil {
		f.Close()
		panic(fmt.Sprintf("experiments: writing checkpoint: %v", err))
	}
	if err := f.Close(); err != nil {
		panic(fmt.Sprintf("experiments: writing checkpoint: %v", err))
	}
}

// topoHash fingerprints the topology shape a snapshot was taken on:
// name, sizes, rates, delays and per-switch port counts.
func topoHash(t *topo.Topology) uint64 {
	h := checkpoint.FoldBytes(checkpoint.FoldInit, []byte(t.Name))
	h = checkpoint.Fold(h, uint64(t.NumHosts))
	h = checkpoint.Fold(h, math.Float64bits(t.HostRate))
	h = checkpoint.Fold(h, uint64(t.HostDelay))
	h = checkpoint.Fold(h, uint64(t.SwitchDelay))
	h = checkpoint.Fold(h, uint64(len(t.Switches)))
	for _, sw := range t.Switches {
		h = checkpoint.Fold(h, uint64(len(sw.Ports)))
	}
	return h
}

// specHash fingerprints everything else that determines the event
// stream: protocol, seed, horizon, bin width, every trace flow, and the
// fault schedule. Two specs with equal topo- and spec-hashes replay
// identically, which is what lets Resume trust a snapshot.
func specHash(spec RunSpec) uint64 {
	h := checkpoint.FoldBytes(checkpoint.FoldInit, []byte(spec.Protocol))
	h = checkpoint.Fold(h, uint64(spec.Seed))
	h = checkpoint.Fold(h, uint64(spec.Horizon))
	h = checkpoint.Fold(h, uint64(spec.BinWidth))
	h = checkpoint.Fold(h, uint64(len(spec.Trace.Flows)))
	for _, fl := range spec.Trace.Flows {
		h = checkpoint.Fold(h, fl.ID)
		h = checkpoint.Fold(h, uint64(uint32(fl.Src))<<32|uint64(uint32(fl.Dst)))
		h = checkpoint.Fold(h, uint64(fl.Size))
		h = checkpoint.Fold(h, uint64(fl.Arrival))
	}
	return checkpoint.Fold(h, spec.Faults.Fingerprint())
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
	Section     string   // first diverging section ("" = snapshot shape)
	Detail      string
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
		rep.Section, rep.Detail = de.Section, de.Detail
	}
	rep.Event = firstEventDivergence(ref[lo], got[lo])
	return rep, nil
}

// firstEventDivergence walks the per-engine journal sections of the
// first diverging snapshot pair and returns the earliest event-key
// mismatch, or nil when journals are absent or agree.
func firstEventDivergence(a, b *checkpoint.Snapshot) *EventDivergence {
	for e := 0; ; e++ {
		name := fmt.Sprintf("journal/%d", e)
		ra, oka := a.Section(name)
		rb, okb := b.Section(name)
		if !oka || !okb {
			return nil
		}
		ja, jb := decodeJournal(ra), decodeJournal(rb)
		limit := len(ja)
		if len(jb) < limit {
			limit = len(jb)
		}
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
}

// ckptSpec is the canonical checkpoint-experiment run: dcPIM on a
// FatTree sized by hosts, IMC10 all-to-all at load 0.5, snapshots with
// journals every `every`. ResumeFile reconstructs this spec from a
// snapshot's meta alone, so every parameter must derive from the
// arguments deterministically.
func ckptSpec(seed int64, hosts int, horizon, every sim.Duration, shards int, dir string) RunSpec {
	tp := fatTreeFor(hosts)
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.5,
		Dist: workload.IMC10(), Horizon: horizon * 2 / 3, Seed: seed,
	}.Generate()
	return RunSpec{
		Protocol: DCPIM, Topo: tp, Trace: tr,
		Horizon: horizon, Seed: seed, Shards: shards,
		Digest: true,
		Checkpoint: &CheckpointSpec{
			Every: every, Dir: dir, Journal: true,
			Label: fmt.Sprintf("ckpt-%s-seed%d", tp.Name, seed),
		},
	}
}

// ckptSpecFromMeta rebuilds the canonical run a ckpt-experiment snapshot
// came from. Resume's spec-hash check then proves the reconstruction
// exact (snapshots from other experiments fail it with a CompatError).
func ckptSpecFromMeta(o Options, m checkpoint.Meta) RunSpec {
	return ckptSpec(m.Seed, m.Hosts, sim.Duration(m.HorizonPs), sim.Duration(m.EveryPs),
		m.Shards, o.CheckpointDir)
}

// RunCkpt is the checkpoint/restore acceptance experiment: run the
// canonical spec with periodic snapshots, resume from the middle one,
// and require the resumed run — digest, event count, and every
// post-resume snapshot — to be byte-identical to the uninterrupted run.
func RunCkpt(o Options, w io.Writer) error {
	horizon := o.scaled(600 * sim.Microsecond)
	every := o.CheckpointEvery
	if every <= 0 {
		every = horizon / 4
	}
	if every <= 0 {
		every = sim.Microsecond
	}
	spec := ckptSpec(o.Seed, o.Hosts, horizon, every, o.Shards, o.CheckpointDir)
	fmt.Fprintf(w, "checkpoint run: %s on %s, %d flows, horizon %v, snapshot every %v\n",
		spec.Protocol, spec.Topo.Name, len(spec.Trace.Flows), sim.Time(0).Add(horizon), every)
	res, snaps := RunCheckpointed(spec)
	fmt.Fprintf(w, "uninterrupted: digest=%#016x events=%d snapshots=%d\n", res.Digest, res.Events, len(snaps))
	if len(snaps) == 0 {
		return fmt.Errorf("no snapshots taken (horizon %v, cadence %v)", sim.Time(0).Add(horizon), every)
	}
	mid := snaps[len(snaps)/2]
	res2, post, err := Resume(ckptSpec(o.Seed, o.Hosts, horizon, every, o.Shards, ""), mid)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "resumed from snapshot %d (t=%v): replay verified, digest=%#016x events=%d\n",
		mid.Meta.Index, sim.Time(mid.Meta.TimePs), res2.Digest, res2.Events)
	if res2.Digest != res.Digest {
		return fmt.Errorf("resumed digest %#016x != uninterrupted %#016x", res2.Digest, res.Digest)
	}
	if res2.Events != res.Events {
		return fmt.Errorf("resumed event count %d != uninterrupted %d", res2.Events, res.Events)
	}
	want := snaps[len(snaps)/2+1:]
	if len(post) != len(want) {
		return fmt.Errorf("resumed run took %d post-resume snapshots, uninterrupted took %d", len(post), len(want))
	}
	for i := range post {
		if err := checkpoint.Compare(want[i], post[i]); err != nil {
			return fmt.Errorf("post-resume snapshot %d: %w", want[i].Meta.Index, err)
		}
	}
	fmt.Fprintf(w, "resume equivalence: digest, %d events and %d post-resume snapshots byte-identical\n",
		res.Events, len(post))
	return nil
}

// ResumeFile loads one ckpt-experiment snapshot file and resumes it:
// verified replay to the snapshot time, then on to the horizon. The run
// spec is rebuilt from the snapshot's own metadata; o supplies only
// output settings (CheckpointDir for post-resume snapshot files).
func ResumeFile(o Options, path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	snap, err := checkpoint.Read(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	spec := ckptSpecFromMeta(o, snap.Meta)
	res, post, err := Resume(spec, snap)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "resumed %s from t=%v (snapshot %d of label %s)\n",
		filepath.Base(path), sim.Time(snap.Meta.TimePs), snap.Meta.Index, snap.Meta.Label)
	fmt.Fprintf(w, "replay verified byte-identical; ran to horizon %v\n", res.End)
	fmt.Fprintf(w, "digest=%#016x events=%d post-resume snapshots=%d\n", res.Digest, res.Events, len(post))
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
		fmt.Fprintf(w, "first diverging section: %s (%s)\n", rep.Section, rep.Detail)
	} else if rep.Detail != "" {
		fmt.Fprintf(w, "snapshots diverge in shape: %s\n", rep.Detail)
	}
	switch ev := rep.Event; {
	case ev == nil:
		fmt.Fprintln(w, "no event-key divergence (journals absent or identical); the section above localizes the state difference")
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
