package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dcpim/internal/checkpoint"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// assertRunsEqual requires every observable of two runs to match:
// digest, event count, flow records, counters, and metrics artifacts.
// ShardStats is deliberately excluded — window placement changes epoch
// bookkeeping without changing execution.
func assertRunsEqual(t *testing.T, what string, want, got RunResult) {
	t.Helper()
	if got.Digest != want.Digest {
		t.Errorf("%s: digest %#016x != %#016x", what, got.Digest, want.Digest)
	}
	if got.Events != want.Events {
		t.Errorf("%s: events %d != %d", what, got.Events, want.Events)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Errorf("%s: flow records differ", what)
	}
	if got.Counters != want.Counters {
		t.Errorf("%s: counters %+v != %+v", what, got.Counters, want.Counters)
	}
	if !bytes.Equal(got.MetricsCSV, want.MetricsCSV) {
		t.Errorf("%s: metrics CSV differs", what)
	}
	if !bytes.Equal(got.MetricsJSON, want.MetricsJSON) {
		t.Errorf("%s: metrics JSON differs", what)
	}
}

// assertStreamsEqual requires two snapshot streams to Compare equal at
// every index.
func assertStreamsEqual(t *testing.T, what string, want, got []*checkpoint.Snapshot) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d snapshots, want %d", what, len(got), len(want))
	}
	for i := range want {
		if err := checkpoint.Compare(want[i], got[i]); err != nil {
			t.Errorf("%s: snapshot %d: %v", what, i, err)
		}
	}
}

// TestCheckpointStreamsReproduce is the checkpoint property proof, stated
// as stream comparisons: at a randomized cadence, across shard counts,
// with and without a fault schedule, a checkpointed run equals a plain
// (never-checkpointed) run in every observable — capture is pure reads —
// and a second checkpointed run of the same spec gives a stream that
// Compares equal to the first at every index.
func TestCheckpointStreamsReproduce(t *testing.T) {
	watchdog(t, 2*time.Minute)
	rng := rand.New(rand.NewSource(20260808))
	for _, withFaults := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			every := sim.Duration(int64(2*sim.Millisecond) / int64(3+rng.Intn(4)))
			t.Run(fmt.Sprintf("faults=%v/shards=%d", withFaults, shards), func(t *testing.T) {
				prep := func(withCk bool) RunSpec {
					spec := goldenSpec(t, DCPIM, withFaults)
					spec.Shards = shards
					spec.Metrics = &MetricsSpec{Label: "ckpt-prop"}
					if withCk {
						spec.Checkpoint = &CheckpointSpec{Every: every, Journal: true}
					}
					return spec
				}
				plain := Run(prep(false))
				ckRes, snaps := RunCheckpointed(prep(true))
				assertRunsEqual(t, "checkpointed vs plain", plain, ckRes)
				if len(snaps) == 0 {
					t.Fatalf("no snapshots at cadence %v", every)
				}
				_, again := RunCheckpointed(prep(true))
				assertStreamsEqual(t, "second checkpointed run", snaps, again)
			})
		}
	}
}

// TestCheckpointAutoShards is the stream property for a run that requested
// no shard count, on the 432-host FatTree (6 shards): its snapshots carry
// the resolved count, a run that spells that count out reproduces the
// stream, and a serial run's stream diverges at snapshot 0 on the shards
// line (it has one engine section, not one per shard).
func TestCheckpointAutoShards(t *testing.T) {
	if testing.Short() {
		t.Skip("four 432-host runs")
	}
	watchdog(t, 2*time.Minute)
	tp := fatTreeFor(432)
	auto := topo.AutoShards(tp)
	if auto < 2 {
		t.Fatalf("AutoShards(%s) = %d: the test needs a topology the default shards", tp.Name, auto)
	}
	horizon := 30 * sim.Microsecond
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.5,
		Dist: workload.WebSearch(), Horizon: horizon * 2 / 3, Seed: 11,
	}.Generate()
	prep := func(shards int, withCk bool) RunSpec {
		spec := RunSpec{
			Protocol: DCPIM, Topo: tp, Trace: tr, Horizon: horizon, Seed: 12,
			Shards: shards, Digest: true,
			BinWidth: 5 * sim.Microsecond, Metrics: &MetricsSpec{Label: "ckpt-auto"},
		}
		if withCk {
			spec.Checkpoint = &CheckpointSpec{Every: horizon / 4, Journal: true}
		}
		return spec
	}
	plain := Run(prep(0, false))
	ckRes, snaps := RunCheckpointed(prep(0, true))
	assertRunsEqual(t, "checkpointed vs plain", plain, ckRes)
	if len(snaps) < 2 {
		t.Fatalf("%d snapshots, want at least 2", len(snaps))
	}
	for _, s := range snaps {
		if len(s.Engines) != auto {
			t.Errorf("snapshot %d: %d engines, want the resolved count %d", s.Meta.Index, len(s.Engines), auto)
		}
	}
	spelled, again := RunCheckpointed(prep(auto, true))
	assertRunsEqual(t, fmt.Sprintf("Shards=%d vs plain", auto), plain, spelled)
	assertStreamsEqual(t, fmt.Sprintf("Shards=%d", auto), snaps, again)

	_, serial := RunCheckpointed(prep(1, true))
	var de *checkpoint.DivergenceError
	if err := checkpoint.Compare(snaps[0], serial[0]); !errors.As(err, &de) ||
		de.A != fmt.Sprintf("shards %d", auto) || de.B != "shards 1" {
		t.Errorf("snapshot 0 against the serial stream's: got %v, want the shards line", err)
	}
}

// perturbedSpec is the golden faulted spec with its loss burst (at
// t=60µs) shifted 1µs later when perturb is set. The shift keeps the
// scheduled-event count, and thus all setup seq allocation, unchanged,
// so the two runs part at that one event.
func perturbedSpec(t *testing.T, perturb bool) RunSpec {
	spec := goldenSpec(t, DCPIM, true)
	if perturb {
		ev := &spec.Faults.Events[1]
		if ev.At != sim.Time(60*sim.Microsecond) {
			t.Fatalf("golden schedule changed: event 1 at %v, want 60µs", ev.At)
		}
		ev.At = ev.At.Add(sim.Microsecond)
	}
	return spec
}

// writeStream runs spec with journaled snapshots every 250µs into dir,
// under label.
func writeStream(spec RunSpec, dir, label string) {
	spec.Checkpoint = &CheckpointSpec{Every: 250 * sim.Microsecond, Dir: dir, Label: label, Journal: true}
	RunCheckpointed(spec)
}

// streamFiles returns the names of label's snapshot files in dir, in
// index order.
func streamFiles(t *testing.T, dir, label string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, label+".ck*.dcpimck"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no %s snapshots in %s (%v)", label, dir, err)
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return paths
}

// readLines returns a file's lines.
func readLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(b), "\n")
}

// firstDiff returns the index of the first line on which a and b differ,
// or -1 when they are equal; a line past one side's end differs.
func firstDiff(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// journalRecords keeps the event-key lines of a snapshot's journals.
func journalRecords(lines []string) []string {
	var out []string
	for _, l := range lines {
		if strings.HasPrefix(l, "journal ") && !strings.Contains(l, " len ") {
			out = append(out, l)
		}
	}
	return out
}

// firstDivergence reads label's streams from dirA and dirB the way a
// reader of diff -r does: it returns the first file that differs and,
// within that file, the first differing journal record on each side.
func firstDivergence(t *testing.T, dirA, dirB, label string) (file, refEvent, gotEvent string) {
	t.Helper()
	a, b := streamFiles(t, dirA, label), streamFiles(t, dirB, label)
	if firstDiff(a, b) >= 0 {
		t.Fatalf("%s: %s holds %v, %s holds %v", label, dirA, a, dirB, b)
	}
	for _, f := range a {
		la, lb := readLines(t, filepath.Join(dirA, f)), readLines(t, filepath.Join(dirB, f))
		if firstDiff(la, lb) < 0 {
			continue
		}
		ja, jb := journalRecords(la), journalRecords(lb)
		if i := firstDiff(ja, jb); i >= 0 {
			if i < len(ja) {
				refEvent = ja[i]
			}
			if i < len(jb) {
				gotEvent = jb[i]
			}
		}
		return f, refEvent, gotEvent
	}
	return "", "", ""
}

// TestBisectLocalizesInjectedDivergence injects a one-event divergence —
// the golden fault schedule's loss burst shifted 1µs later — and
// requires the two snapshot streams to part where the fault does: ck0000
// is the first file that differs, and its first differing journal line
// is the reference side's event at 60µs.
func TestBisectLocalizesInjectedDivergence(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	writeStream(perturbedSpec(t, false), dirA, "golden-faulted")
	writeStream(perturbedSpec(t, true), dirB, "golden-faulted")
	file, ref, got := firstDivergence(t, dirA, dirB, "golden-faulted")
	if file != "golden-faulted.ck0000.dcpimck" {
		t.Fatalf("first differing file %q, want ck0000 (the fault at 60µs is inside the first window)", file)
	}
	// Everything before 60µs is identical by construction.
	if !strings.HasPrefix(ref, "journal 0 60000000 ") || ref == got {
		t.Errorf("first differing journal line %q vs %q, want the reference side's event at 60000000 ps", ref, got)
	}
}

// TestBisectDirsByLabel: two directories that each hold two runs'
// snapshot streams, one of which differs by the 1µs fault shift of
// TestBisectLocalizesInjectedDivergence. The clean label's files must be
// byte-identical, and the faulted label must diverge at ck0000, at the
// reference side's event at 60µs.
func TestBisectDirsByLabel(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	for _, d := range []struct {
		dir     string
		perturb bool
	}{{dirA, false}, {dirB, true}} {
		writeStream(goldenSpec(t, DCPIM, false), d.dir, "golden-clean")
		writeStream(perturbedSpec(t, d.perturb), d.dir, "golden-faulted")
	}
	if file, _, _ := firstDivergence(t, dirA, dirB, "golden-clean"); file != "" {
		t.Errorf("golden-clean: %s differs between two runs of one spec", file)
	}
	if n := len(streamFiles(t, dirA, "golden-clean")); n != 8 {
		t.Errorf("golden-clean: %d snapshots, want 8", n)
	}
	file, ref, _ := firstDivergence(t, dirA, dirB, "golden-faulted")
	if file != "golden-faulted.ck0000.dcpimck" || !strings.HasPrefix(ref, "journal 0 60000000 ") {
		t.Errorf("golden-faulted diverges at %q, first journal line %q; want ck0000 at 60000000 ps", file, ref)
	}
}

// TestBisectNoDivergence: two runs of one spec write byte-identical
// files, so diff finds nothing to localize.
func TestBisectNoDivergence(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	for _, dir := range []string{dirA, dirB} {
		spec := goldenSpec(t, DCPIM, false)
		spec.Checkpoint = &CheckpointSpec{Every: 500 * sim.Microsecond, Dir: dir, Label: "golden", Journal: true}
		RunCheckpointed(spec)
	}
	if file, _, _ := firstDivergence(t, dirA, dirB, "golden"); file != "" {
		t.Errorf("%s differs between two runs of one spec", file)
	}
}

// TestCheckpointDigestWithoutRunDigest: a checkpointed run folds the
// per-host delivered-stream digests whether or not RunSpec.Digest is set
// (figure cells never set it), so every snapshot's digest section holds
// one word per host, equal to a Digest run's, and bisection sees a
// divergent delivered byte at the snapshot where it lands.
func TestCheckpointDigestWithoutRunDigest(t *testing.T) {
	spec := fixtureSpec(16)
	_, withDigest := RunCheckpointed(spec)
	spec = fixtureSpec(16)
	spec.Digest = false
	res, without := RunCheckpointed(spec)
	if res.Digest != 0 {
		t.Errorf("RunResult.Digest = %#x without RunSpec.Digest, want 0", res.Digest)
	}
	if len(without) != len(withDigest) || len(without) == 0 {
		t.Fatalf("%d snapshots without Digest, %d with", len(without), len(withDigest))
	}
	for i := range without {
		got, ref := without[i].Digests, withDigest[i].Digests
		if len(got) != spec.Topo.NumHosts {
			t.Errorf("snapshot %d: %d digests, want one per host (%d)", i, len(got), spec.Topo.NumHosts)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("snapshot %d: digests differ from the Digest run's", i)
		}
	}
}

// fixtureSpec pins the golden snapshot fixture's run: dcPIM on a FatTree
// of the given size, IMC10 all-to-all at load 0.5, journaled snapshots
// every 50 µs of a 200 µs horizon (the fixture is the 16-host run's).
func fixtureSpec(hosts int) RunSpec {
	tp := fatTreeFor(hosts)
	horizon := 200 * sim.Microsecond
	return RunSpec{
		Protocol: DCPIM, Topo: tp, Trace: allToAll(tp, workload.IMC10(), 0.5, horizon*2/3, 7),
		Horizon: horizon, Seed: 7, Digest: true,
		Checkpoint: &CheckpointSpec{
			Every: 50 * sim.Microsecond, Journal: true,
			Label: fmt.Sprintf("ckpt-%s-seed7", tp.Name),
		},
	}
}

const fixtureName = "ckpt-fattree16.dcpimck"

// TestGoldenCheckpointFixture locks the snapshot text and the
// simulation's event stream to a checked-in fixture: snapshot 1 of the
// 16-host fixtureSpec run. A failure here means a stored stream no longer
// matches what this build writes: if the behavior change is deliberate,
// regenerate it through golden, and bump checkpoint.Version if the layout
// itself changed.
func TestGoldenCheckpointFixture(t *testing.T) {
	_, snaps16 := RunCheckpointed(fixtureSpec(16))
	if len(snaps16) != 4 {
		t.Fatalf("fixture run took %d snapshots, want 4", len(snaps16))
	}
	fresh := snaps16[1].Text()
	golden(t, fixtureName, fresh)
	raw, err := os.ReadFile(filepath.Join("testdata", fixtureName))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")

	// The state below the identity line reproduces; a failure names the
	// first line that differs, as diff would.
	t.Run("reproduces", func(t *testing.T) {
		got := strings.Split(string(fresh), "\n")
		if i := firstDiff(want[2:], got[2:]); i >= 0 {
			t.Fatalf("a fresh run no longer reproduces the fixture — the event stream or the layout changed (see regeneration note): line %d: %q in the fixture, %q fresh",
				i+3, line(want, i+2), line(got, i+2))
		}
	})

	// The bytes, not only the lines, are pinned, so streams stored by
	// earlier builds still diff clean against new ones.
	t.Run("writes-fixture-bytes", func(t *testing.T) {
		if !bytes.Equal(fresh, raw) {
			t.Fatalf("fresh snapshot 1 writes %d bytes that differ from the %d-byte fixture (see regeneration note)", len(fresh), len(raw))
		}
	})

	// The same run on another topology is another run: below the
	// identity line, which names the run, its snapshot 1 diverges from
	// the fixture first on the hosts line.
	t.Run("topology-mismatch", func(t *testing.T) {
		_, snaps := RunCheckpointed(fixtureSpec(128))
		var de *checkpoint.DivergenceError
		if err := checkpoint.Compare(snaps[1], snaps16[1]); !errors.As(err, &de) || de.A != "hosts 128" {
			t.Fatalf("128-host snapshot 1 vs the 16-host fixture: got %v, want the hosts line", err)
		}
	})
}

// line returns lines[i], or "" past the end.
func line(lines []string, i int) string {
	if i < 0 || i >= len(lines) {
		return ""
	}
	return lines[i]
}

// TestRunKeepsSnapshotsOnlyWhenAsked pins that a checkpointed Run writes
// every snapshot to Checkpoint.Dir without holding on to them: run
// returns no slice unless RunCheckpointed asks for one, and the files
// and digest match those of a run that keeps its snapshots.
func TestRunKeepsSnapshotsOnlyWhenAsked(t *testing.T) {
	dropped, kept := fixtureSpec(16), fixtureSpec(16)
	dropped.Checkpoint.Dir, kept.Checkpoint.Dir = t.TempDir(), t.TempDir()
	res := Run(dropped)
	keptRes, snaps := RunCheckpointed(kept)
	if want := int(dropped.Horizon / dropped.Checkpoint.Every); len(snaps) != want {
		t.Fatalf("RunCheckpointed kept %d snapshots, want %d", len(snaps), want)
	}
	if res.Digest != keptRes.Digest {
		t.Errorf("digest %x without kept snapshots, %x with", res.Digest, keptRes.Digest)
	}
	if _, none := run(fixtureSpec(16), nil, false); none != nil {
		t.Errorf("run returned %d snapshots it was not asked to keep", len(none))
	}

	files, err := os.ReadDir(dropped.Checkpoint.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(snaps) {
		t.Fatalf("Run wrote %d snapshot files, want %d", len(files), len(snaps))
	}
	for i, f := range files {
		if want := fmt.Sprintf("%s.ck%04d.dcpimck", snaps[i].Meta.Label, i); f.Name() != want {
			t.Errorf("file %d is %s, want %s", i, f.Name(), want)
		}
		got, err := os.ReadFile(filepath.Join(dropped.Checkpoint.Dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(kept.Checkpoint.Dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between a run that keeps its snapshots and one that does not", f.Name())
		}
	}
}
