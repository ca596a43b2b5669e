package experiments

import (
	"path/filepath"
	"testing"
	"time"

	"dcpim/internal/sim"
	"dcpim/internal/workload"
)

// golden1024Digest locks the 1024-host FatTree campaign cell (WebSearch
// all-to-all at load 0.3, 100 µs trace, seed 8 — the `-run scale` low-load
// point). Regenerate the same way as the leaf-spine goldens: run the test
// with -v and copy the measured digest, with the change explained by the
// commit.
const golden1024Digest uint64 = 0xfdbadd4100015ba2

// scale1024Spec mirrors the low-load 1024-host cell of RunScale.
func scale1024Spec() RunSpec {
	tp := fatTreeFor(1024)
	horizon := 100 * sim.Microsecond
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.3,
		Dist: workload.WebSearch(), Horizon: horizon, Seed: 1,
	}.Generate()
	return RunSpec{
		Protocol: DCPIM, Topo: tp, Trace: tr,
		Horizon: horizon + horizon/2, Seed: 8, Digest: true,
	}
}

// Test1024HostDigest runs the 1024-host FatTree at 1, 8, 16 and 64 shards
// and requires every run to reproduce the committed digest: the
// hyperscale configurations the campaign actually uses stay byte-identical
// to serial execution, not just the small topologies the other
// determinism tests cover.
func Test1024HostDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("four 1024-host runs")
	}
	watchdog(t, 3*time.Minute)
	for _, shards := range []int{1, 8, 16, 64} {
		spec := scale1024Spec()
		spec.Shards = shards
		res := Run(spec)
		if res.Digest != golden1024Digest {
			t.Errorf("shards=%d digest %#016x, want golden %#016x (see regeneration note)",
				shards, res.Digest, golden1024Digest)
		}
	}
}

// golden8192Digest locks the k=32 (8192-host) FatTree cell: WebSearch
// all-to-all at load 0.3 over a 10 µs trace, seed 8 — the hyperscale
// rung the multi-core campaign sweeps, on a horizon short enough for a
// unit test. Regenerate like the other goldens: run with -v and copy the
// measured digest, with the change explained by the commit.
const golden8192Digest uint64 = 0xa5a45b638a5e4730

// scale8192Spec mirrors the 8192-host campaign cell at test scale.
func scale8192Spec() RunSpec {
	tp := fatTreeFor(8192)
	horizon := 10 * sim.Microsecond
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.3,
		Dist: workload.WebSearch(), Horizon: horizon, Seed: 1,
	}.Generate()
	return RunSpec{
		Protocol: DCPIM, Topo: tp, Trace: tr,
		Horizon: horizon + horizon/2, Seed: 8, Digest: true,
	}
}

// Test8192HostDigest is the hyperscale-rung sibling of Test1024HostDigest:
// the 8192-host FatTree must reproduce its committed digest serially and
// at 8 shards — structural routing and the epoch barrier in the hot path.
func Test8192HostDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("two 8192-host runs")
	}
	watchdog(t, 3*time.Minute)
	for _, shards := range []int{1, 8} {
		spec := scale8192Spec()
		spec.Shards = shards
		res := Run(spec)
		if res.Digest != golden8192Digest {
			t.Errorf("shards=%d digest %#016x, want golden %#016x (see regeneration note)",
				shards, res.Digest, golden8192Digest)
		}
	}
}

// TestCheckpointedCellIsMetered: a checkpointed campaign cell runs
// through the one run driver with its clock, so its Wall and Wire are
// read as for any other cell — and its snapshot files are still written.
func TestCheckpointedCellIsMetered(t *testing.T) {
	tp := fatTreeFor(16)
	horizon := 40 * sim.Microsecond
	dir := t.TempDir()
	spec := RunSpec{
		Protocol: DCPIM, Topo: tp, Trace: allToAll(tp, workload.WebSearch(), 0.3, horizon, 1),
		Horizon: horizon + horizon/2, Seed: 8, Digest: true,
		Checkpoint: &CheckpointSpec{
			Every: 20 * sim.Microsecond, Dir: dir, Label: scaleCellLabel(16, 0.3, 0), Journal: true,
		},
	}
	res := runClocked(spec, WallTimer())
	if res.Wall <= 0 || res.Wire <= 0 {
		t.Errorf("checkpointed cell not metered: Wall %v, Wire %v", res.Wall, res.Wire)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.dcpimck"))
	if err != nil || len(files) != 3 {
		t.Errorf("%d snapshot files (%v), want 3 (at 20, 40 and 60 µs)", len(files), err)
	}
}

// TestScaleRowBound: a serial row counts every event as critical, since
// one shard runs epochs too, and still prints no bound and no serial
// share; a sharded row prints events over critical events.
func TestScaleRowBound(t *testing.T) {
	serial := ScaleResult{Shards: 1, Events: 100, Critical: 100}
	if got, lbl := serial.bound(), serial.serialLabel(); got != "-" || lbl != "-" {
		t.Errorf("serial row: bound %q, serial %q; want - and -", got, lbl)
	}
	sharded := ScaleResult{Shards: 2, Events: 100, Critical: 80}
	if got := sharded.bound(); got != "1.25x" {
		t.Errorf("sharded row: bound %q, want 1.25x", got)
	}
}

// TestWorkersClamp pins the RunMany pool division: the pool is the floor
// of the worker budget over an explicit shard count, clamped to one, so
// workers × shards never exceeds the budget (the old ceiling division
// oversubscribed whenever shards didn't divide it). Auto (0) has no one
// count to divide by and leaves the pool alone.
func TestWorkersClamp(t *testing.T) {
	for _, tc := range []struct {
		workers, shards, want int
	}{
		{8, 0, 8},
		{8, 1, 8},
		{8, 2, 4},
		{4, 3, 1},  // ceiling division used to give 2 → 6 goroutines on 4 CPUs
		{8, 3, 2},  // floor: 2×3 = 6 ≤ 8; ceiling gave 3×3 = 9
		{2, 8, 1},  // one simulation wider than the budget still runs
		{1, 64, 1}, // never zero
	} {
		o := Options{Workers: tc.workers, Shards: tc.shards}
		if got := o.EffectiveWorkers(); got != tc.want {
			t.Errorf("EffectiveWorkers(workers=%d shards=%d) = %d, want %d", tc.workers, tc.shards, got, tc.want)
		}
	}
}
