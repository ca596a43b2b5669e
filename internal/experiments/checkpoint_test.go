package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
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
					spec.Metrics = &MetricsSpec{Interval: 10 * sim.Microsecond, Label: "ckpt-prop"}
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
// stream, and a serial run's stream diverges at snapshot 0 (it has one
// engine section, not one per shard).
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
			Metrics: &MetricsSpec{Interval: 5 * sim.Microsecond, Label: "ckpt-auto"},
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
	rep, err := Bisect(snaps, serial)
	if err != nil {
		t.Fatalf("bisect against the serial stream: %v", err)
	}
	if rep.FirstBad != 0 {
		t.Errorf("serial stream first diverges at snapshot %d, want 0", rep.FirstBad)
	}
}

// TestBisectLocalizesInjectedDivergence injects a one-event divergence —
// the golden fault schedule's loss burst shifted 1µs later, which keeps
// the scheduled-event count (and thus all setup seq allocation)
// unchanged — and requires Bisect to localize it to the first snapshot
// window and to the single perturbed event.
func TestBisectLocalizesInjectedDivergence(t *testing.T) {
	const every = 250 * sim.Microsecond
	run := func(perturb bool) []*checkpoint.Snapshot {
		spec := goldenSpec(t, DCPIM, true)
		if perturb {
			ev := &spec.Faults.Events[1] // loss burst at t=60µs
			if ev.At != sim.Time(60*sim.Microsecond) {
				t.Fatalf("golden schedule changed: event 1 at %v, want 60µs", ev.At)
			}
			ev.At = ev.At.Add(sim.Microsecond)
		}
		spec.Checkpoint = &CheckpointSpec{Every: every, Journal: true}
		_, snaps := RunCheckpointed(spec)
		return snaps
	}
	ref := run(false)
	got := run(true)
	rep, err := Bisect(ref, got)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstBad != 0 {
		t.Errorf("first bad snapshot index %d, want 0 (fault at 60µs is inside the first window)", rep.FirstBad)
	}
	if rep.WindowEnd != sim.Time(every) {
		t.Errorf("window end %v, want %v", rep.WindowEnd, sim.Time(every))
	}
	ev := rep.Event
	if ev == nil {
		t.Fatal("bisect found no event-level divergence despite journals")
	}
	if ev.Engine != 0 {
		t.Errorf("diverging engine %d, want 0 (single shard)", ev.Engine)
	}
	// The reference side's diverging event is exactly the unperturbed
	// fault firing: everything before 60µs is identical by construction.
	if ev.RefAt != sim.Time(60*sim.Microsecond) {
		t.Errorf("first diverging event at %v on reference side, want 60µs (the injected perturbation)", ev.RefAt)
	}
	if ev.RefAt == ev.GotAt && ev.RefSeq == ev.GotSeq && !ev.RefMissing && !ev.GotMissing {
		t.Error("event divergence does not actually differ")
	}
}

// TestBisectDirsByLabel: two directories that each hold two runs'
// snapshot streams, one of which differs by the 1µs fault shift of
// TestBisectLocalizesInjectedDivergence. BisectDirs must bisect each
// label on its own, name the diverging one and localize its divergence
// to the perturbed event; a label present on one side only is an error
// that names it.
func TestBisectDirsByLabel(t *testing.T) {
	const every = 250 * sim.Microsecond
	write := func(dir string, perturb bool) {
		for _, withFaults := range []bool{false, true} {
			spec := goldenSpec(t, DCPIM, withFaults)
			label := "golden-clean"
			if withFaults {
				label = "golden-faulted"
				if perturb {
					spec.Faults.Events[1].At = spec.Faults.Events[1].At.Add(sim.Microsecond)
				}
			}
			spec.Checkpoint = &CheckpointSpec{Every: every, Dir: dir, Label: label, Journal: true}
			RunCheckpointed(spec)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	write(dirA, false)
	write(dirB, true)
	var out bytes.Buffer
	if err := BisectDirs(dirA, dirB, &out); err != nil {
		t.Fatalf("BisectDirs: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"label golden-clean: 8 vs 8 snapshots, no divergence\n",
		"label golden-faulted: 8 vs 8 snapshots, diverges\n" +
			"first diverging snapshot: index 0, window (0.000us, 250.000us]\n" +
			"first diverging field: engine/0 ",
		"first diverging event: engine 0 event ",
		"(t=60.000us ",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("BisectDirs output lacks %q:\n%s", want, out.String())
		}
	}

	clean, err := filepath.Glob(filepath.Join(dirB, "golden-clean.*"))
	if err != nil || len(clean) == 0 {
		t.Fatalf("no golden-clean snapshots in %s (%v)", dirB, err)
	}
	for _, p := range clean {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	err = BisectDirs(dirA, dirB, &out)
	if err == nil || !strings.Contains(err.Error(), "label golden-clean has snapshots in "+dirA+" but none in "+dirB) {
		t.Errorf("BisectDirs with a label on one side only: err = %v, want one naming golden-clean", err)
	}
}

// TestBisectNoDivergence: identical streams must refuse to bisect
// rather than invent a divergence.
func TestBisectNoDivergence(t *testing.T) {
	spec := goldenSpec(t, DCPIM, false)
	spec.Checkpoint = &CheckpointSpec{Every: 500 * sim.Microsecond, Journal: true}
	_, a := RunCheckpointed(spec)
	spec2 := goldenSpec(t, DCPIM, false)
	spec2.Checkpoint = spec.Checkpoint
	_, b := RunCheckpointed(spec2)
	if _, err := Bisect(a, b); err == nil {
		t.Fatal("bisect of identical streams succeeded, want error")
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

const fixturePath = "testdata/ckpt-fattree16.dcpimck"

// TestGoldenCheckpointFixture locks the on-disk snapshot format and the
// simulation's event stream to a checked-in fixture: snapshot 1 of the
// 16-host fixtureSpec run. A failure here means a stored stream no longer
// matches what this build writes: if the behavior change is deliberate,
// regenerate with
//
//	DCPIM_REGEN=1 go test ./internal/experiments -run TestGoldenCheckpointFixture
//
// and bump checkpoint.Version if the byte format itself changed.
func TestGoldenCheckpointFixture(t *testing.T) {
	if os.Getenv("DCPIM_REGEN") != "" {
		_, snaps := RunCheckpointed(fixtureSpec(16))
		if len(snaps) != 4 {
			t.Fatalf("fixture run took %d snapshots, want 4", len(snaps))
		}
		var buf bytes.Buffer
		if err := snaps[1].Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixturePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", fixturePath, buf.Len())
	}
	raw, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatalf("golden fixture missing (see regeneration note above): %v", err)
	}
	snap, err := checkpoint.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("golden fixture unreadable: %v", err)
	}

	t.Run("reproduces", func(t *testing.T) {
		_, snaps := RunCheckpointed(fixtureSpec(16))
		if len(snaps) != 4 {
			t.Fatalf("fresh run took %d snapshots, want 4", len(snaps))
		}
		if err := checkpoint.Compare(snaps[1], snap); err != nil {
			t.Fatalf("a fresh run no longer reproduces the fixture — the event stream or capture format changed (see regeneration note): %v", err)
		}
	})

	// The writer, not only the state, is pinned: a fresh run's snapshot 1
	// encodes to the fixture's bytes, so streams stored by earlier builds
	// of this format version still bisect against new ones.
	t.Run("writes-fixture-bytes", func(t *testing.T) {
		_, snaps := RunCheckpointed(fixtureSpec(16))
		var buf bytes.Buffer
		if err := snaps[1].Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), raw) {
			t.Fatalf("fresh snapshot 1 encodes to %d bytes that differ from the %d-byte fixture (see regeneration note)", buf.Len(), len(raw))
		}
	})

	// A file another format version wrote, with a checksum valid over its
	// own bytes, gets the typed refusal rather than a misreading.
	t.Run("version-mismatch", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		v := len("DCPIMCK1") // the version word follows the magic
		mut[v]++
		h := fnv.New64a()
		h.Write(mut[:len(mut)-8])
		binary.LittleEndian.PutUint64(mut[len(mut)-8:], h.Sum64())
		_, err := checkpoint.Read(bytes.NewReader(mut))
		var ve *checkpoint.VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("want VersionError, got %v", err)
		}
		if ve.Got != checkpoint.Version+1 || ve.Want != checkpoint.Version {
			t.Errorf("VersionError %+v, want got=%d want=%d", ve, checkpoint.Version+1, checkpoint.Version)
		}
	})

	// The same run on another topology is another run: its snapshot 1
	// diverges from the fixture.
	t.Run("topology-mismatch", func(t *testing.T) {
		_, snaps := RunCheckpointed(fixtureSpec(128))
		var de *checkpoint.DivergenceError
		if err := checkpoint.Compare(snaps[1], snap); !errors.As(err, &de) {
			t.Fatalf("128-host snapshot 1 vs the 16-host fixture: want DivergenceError, got %v", err)
		}
	})

	t.Run("corrupted-bytes", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		mut[len(mut)/2] ^= 0x40
		if _, err := checkpoint.Read(bytes.NewReader(mut)); err == nil {
			t.Fatal("corrupted fixture read succeeded, want checksum error")
		}
	})
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
