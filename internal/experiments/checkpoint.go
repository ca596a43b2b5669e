package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"dcpim/internal/checkpoint"
	"dcpim/internal/sim"
)

// Checkpoint orchestration (DESIGN.md §14). Engines hold Go closures, so
// a snapshot cannot be deserialized back into a live run. It is an
// assertion instead: each engine's pending event keys, clock and RNG
// position, the per-host delivered-stream digests and, optionally, the
// keys of every event executed since the last snapshot. Snapshot streams
// are compared, never resumed from: checkpoint.Compare checks one pair in
// memory, and diff -r two directories of files — a stored stream and a
// fresh one, or two builds' — down to the first diverging event.

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
	// event, window by window, into each snapshot — the lines that name
	// the first diverging event. Costs one append per event.
	Journal bool
}

// RunCheckpointed is Run that also returns the snapshots it captured, one
// per multiple of spec.Checkpoint.Every up to the horizon (none when
// spec.Checkpoint is nil). The RunResult is byte-identical to an
// uncheckpointed run of the same spec.
func RunCheckpointed(spec RunSpec) (RunResult, []*checkpoint.Snapshot) {
	return run(spec, nil, true)
}

// capture records the run's state at time at: each engine's
// EngineState, a copy of the per-host delivered-stream digests (the run
// keeps folding into rs.hostDigests) and, when enabled, each engine's
// journal since the last capture. Pure reads, so a capturing run stays
// byte-identical to a non-capturing one.
func (rs *runState) capture(at sim.Time, idx int) *checkpoint.Snapshot {
	ck := rs.spec.Checkpoint
	snap := &checkpoint.Snapshot{
		Meta: checkpoint.Meta{
			Label: rs.spec.label(ck.Label), Protocol: rs.spec.Protocol, Seed: rs.spec.Seed,
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
	path := filepath.Join(ck.Dir, fmt.Sprintf("%s.ck%04d.dcpimck", snap.Meta.Label, snap.Meta.Index))
	if err := os.WriteFile(path, snap.Text(), 0o666); err != nil {
		panic(fmt.Sprintf("experiments: writing checkpoint: %v", err))
	}
}
