package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dcpim/internal/checkpoint"
	"dcpim/internal/faults"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// goldenFaults is the fixed schedule for the golden digest run: one
// multi-epoch dark downlink, a total-loss burst, and a cold spine reboot.
func goldenFaults() []faults.Event {
	us := sim.Time(sim.Microsecond)
	return []faults.Event{
		{Kind: faults.LinkDown, Switch: 0, Port: 1, At: 40 * us, Dur: 90 * sim.Microsecond},
		{Kind: faults.LossBurst, Switch: 1, Port: 2, At: 60 * us, Dur: 30 * sim.Microsecond, Rate: 1},
		{Kind: faults.SwitchReboot, Switch: 2, At: 100 * us, Dur: 50 * sim.Microsecond, Drain: faults.DrainDrop},
	}
}

// goldenSpec builds the fixed-seed digest run, with the telemetry layer
// on so its summary carries every counter. Every call constructs a fresh
// trace and topology so serial and parallel executions share nothing.
func goldenSpec(t *testing.T, proto string, withFaults bool) RunSpec {
	t.Helper()
	tp := leafSpineFor(8)
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.4,
		Dist: workload.IMC10(), Horizon: 200 * sim.Microsecond, Seed: 42,
	}.Generate()
	spec := RunSpec{
		Protocol: proto, Topo: tp, Trace: tr,
		Horizon: 2 * sim.Millisecond, Seed: 99, Digest: true,
		Metrics: &MetricsSpec{Label: "golden-" + proto},
	}
	if withFaults {
		sched := &faults.Schedule{Events: goldenFaults()}
		if err := sched.Validate(tp); err != nil {
			t.Fatal(err)
		}
		spec.Faults = sched
	}
	return spec
}

// goldenFile names the summary of goldenSpec(proto, withFaults) under
// testdata. A change to any transport's packet stream shows up as a diff
// of its two files, and a commit that moves them explains why.
func goldenFile(proto string, withFaults bool) string {
	if withFaults {
		return "golden/" + proto + "-faulted.txt"
	}
	return "golden/" + proto + "-clean.txt"
}

// TestGoldenDigest locks the summary of a fixed-seed dcPIM run — with
// and without faults — to its golden file, and requires serial and
// parallel RunMany execution to agree bit-for-bit at any worker count.
func TestGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults bool
	}{
		{"clean", false},
		{"faulted", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := goldenSpec(t, DCPIM, tc.faults)
			bdp := spec.Topo.BDP()
			serial := Run(spec)
			if serial.Digest == 0 {
				t.Fatal("digest not computed")
			}
			want := summary(serial, bdp)
			golden(t, goldenFile(DCPIM, tc.faults), want)
			specs := make([]RunSpec, 4)
			for i := range specs {
				specs[i] = goldenSpec(t, DCPIM, tc.faults)
			}
			for i, res := range RunMany(specs, 4) {
				sameSummary(t, fmt.Sprintf("parallel run %d vs serial", i), want, summary(res, bdp))
			}
		})
	}
}

// TestGoldenDigestPerProtocol locks every transport's clean and faulted
// summaries to their golden files, so a refactor of any baseline that
// moves its packet stream fails here by name, and requires that faults
// change the stream while reruns do not.
func TestGoldenDigestPerProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("per-transport digest sweep")
	}
	for _, tr := range transports {
		spec := goldenSpec(t, tr.name, false)
		bdp := spec.Topo.BDP()
		clean := Run(spec)
		again := Run(goldenSpec(t, tr.name, false))
		faulted := Run(goldenSpec(t, tr.name, true))
		sum := summary(clean, bdp)
		sameSummary(t, tr.name+": a rerun", sum, summary(again, bdp))
		if clean.Digest == faulted.Digest {
			t.Errorf("%s: fault schedule did not change delivered stream (%#x)", tr.name, clean.Digest)
		}
		golden(t, goldenFile(tr.name, false), sum)
		golden(t, goldenFile(tr.name, true), summary(faulted, bdp))
	}
}

// TestShardedByteIdentity is the sharded engine's core invariant: one
// seed, run serially and across 2 and 4 shards, produces bit-identical
// summaries, flow records, counters, and sampled metrics artifacts — with
// and without a fault schedule. goldenSpec's topology (leafspine-8: two
// racks, two spines) splits into at most 4 single-switch shards, so 4
// is the hardest cut: every switch↔switch link is a shard boundary.
func TestShardedByteIdentity(t *testing.T) {
	watchdog(t, time.Minute)
	sharded := func(t *testing.T, withFaults bool, shards int) RunSpec {
		spec := goldenSpec(t, DCPIM, withFaults)
		spec.Shards = shards
		return spec
	}
	for _, tc := range []struct {
		name   string
		faults bool
	}{
		{"clean", false},
		{"faulted", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := sharded(t, tc.faults, 1)
			bdp := spec.Topo.BDP()
			serial := Run(spec)
			want := summary(serial, bdp)
			golden(t, goldenFile(DCPIM, tc.faults), want)
			for _, shards := range []int{2, 4} {
				res := Run(sharded(t, tc.faults, shards))
				sameSummary(t, fmt.Sprintf("shards=%d vs serial", shards), want, summary(res, bdp))
				if !reflect.DeepEqual(res.Records, serial.Records) {
					t.Errorf("shards=%d flow records differ from serial", shards)
				}
				if res.Counters != serial.Counters {
					t.Errorf("shards=%d counters %+v != serial %+v", shards, res.Counters, serial.Counters)
				}
				if !bytes.Equal(res.MetricsCSV, serial.MetricsCSV) {
					t.Errorf("shards=%d metrics CSV differs from serial", shards)
				}
				if !bytes.Equal(res.MetricsJSON, serial.MetricsJSON) {
					t.Errorf("shards=%d metrics JSON differs from serial", shards)
				}
			}
		})
	}
}

// TestShardedPerProtocol runs every comparator sharded: the boundary
// staging path must be protocol-agnostic (trims, PFC, Aeolus drops, and
// fastpass's centralized arbiter messages all cross rack boundaries).
func TestShardedPerProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("comparator sharded sweep")
	}
	watchdog(t, time.Minute)
	protos := append([]string{Fastpass}, Comparators...)
	for _, proto := range protos {
		serial := Run(goldenSpec(t, proto, true))
		spec := goldenSpec(t, proto, true)
		spec.Shards = 4
		res := Run(spec)
		if res.Digest != serial.Digest {
			t.Errorf("%s: shards=4 digest %#016x != serial %#016x", proto, res.Digest, serial.Digest)
		}
	}
}

// TestExperimentOutputShardInvariant requires the printed artifacts of
// fig3a (leaf-spine load bisection) and fig5cd (FatTree slowdowns) — the
// acceptance experiments — to be byte-identical between serial and 2/4
// shard execution at quick scale.
func TestExperimentOutputShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments three times each")
	}
	watchdog(t, 2*time.Minute)
	for _, id := range []string{"fig3a", "fig5cd"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		var ref bytes.Buffer
		o := quick()
		if err := e.Run(o, &ref); err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		for _, shards := range []int{2, 4} {
			var got bytes.Buffer
			os := o
			os.Shards = shards
			if err := e.Run(os, &got); err != nil {
				t.Fatalf("%s shards=%d: %v", id, shards, err)
			}
			if !bytes.Equal(ref.Bytes(), got.Bytes()) {
				t.Errorf("%s: -shards %d output differs from serial:\n%s\nvs\n%s",
					id, shards, got.String(), ref.String())
			}
		}
	}
}

// TestFaultsOutputShardInvariant requires the full resilience grid —
// fault generation, installation, auditing, and report printing — to be
// byte-identical between serial and 4-shard fabrics, proving the fault
// injector and packet-conservation auditor are shard-safe end to end.
func TestFaultsOutputShardInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fault grid twice")
	}
	watchdog(t, 2*time.Minute)
	var ref bytes.Buffer
	o := quick()
	o.Workers = 1
	if err := RunFaults(o, &ref); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	o.Shards = 4
	if err := RunFaults(o, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref.Bytes(), got.Bytes()) {
		t.Errorf("-shards 4 output differs from serial:\n%s\nvs\n%s", got.String(), ref.String())
	}
}

// TestFaultsOutputParallelInvariant requires the faults experiment's
// printed report to be byte-identical at -parallel 1, 4 and 8.
func TestFaultsOutputParallelInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fault grid three times")
	}
	var ref bytes.Buffer
	o := quick()
	o.Workers = 1
	if err := RunFaults(o, &ref); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		var got bytes.Buffer
		o.Workers = workers
		if err := RunFaults(o, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref.Bytes(), got.Bytes()) {
			t.Errorf("-parallel %d output differs from serial:\n%s\nvs\n%s", workers, got.String(), ref.String())
		}
	}
}

// TestAutoShardsInvariant is the default's equivalence proof on the
// smallest fabric it shards and on the size it was first measured at:
// the 144-host leaf-spine (2 shards) and the 1024-host FatTree (16) with
// no count requested run on topo.AutoShards shards (len(ShardStats) says
// so) and produce the digest, counters, flow records and sampled metrics
// of the serial and of the explicit 2-shard run — on the leaf-spine for
// every protocol of the paper's comparison, on the FatTree for a
// receiver-driven, a trimming and a PFC-lossless one. HPCC keeps the
// bare-propagation window of 200 ns.
func TestAutoShardsInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("seventeen 144- and 1024-host runs")
	}
	watchdog(t, 3*time.Minute)
	for _, fc := range []struct {
		tp     *topo.Topology
		dist   workload.SizeDist
		auto   int
		protos []string
	}{
		{topo.DefaultLeafSpine().Build(), workload.IMC10(), 2, Comparators},
		{fatTreeFor(1024), workload.WebSearch(), 16, []string{DCPIM, NDP, HPCC}},
	} {
		tp := fc.tp
		horizon := 20 * sim.Microsecond
		tr := workload.AllToAllConfig{
			Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.6,
			Dist: fc.dist, Horizon: horizon, Seed: 5,
		}.Generate()
		if auto := topo.AutoShards(tp); auto != fc.auto {
			t.Fatalf("AutoShards(%s) = %d, want %d", tp.Name, auto, fc.auto)
		}
		for _, proto := range fc.protos {
			spec := func(shards int) RunSpec {
				return RunSpec{
					Protocol: proto, Topo: tp, Trace: tr,
					Horizon: horizon + horizon/2, Seed: 6, Shards: shards, Digest: true,
					BinWidth: 5 * sim.Microsecond, Metrics: &MetricsSpec{Label: "auto"},
				}
			}
			if proto == HPCC {
				rs := newRunState(spec(0), nil)
				if got, want := rs.fab.Lookahead(), 200*sim.Nanosecond; got != want {
					t.Errorf("%s %s: auto window %v, want the bare propagation %v", tp.Name, proto, got, want)
				}
				rs.close()
			}
			serial := Run(spec(1))
			if serial.Digest == 0 || serial.Col.Completed() == 0 {
				t.Fatalf("%s %s: serial run delivered nothing (digest %#x, %d flows completed)",
					tp.Name, proto, serial.Digest, serial.Col.Completed())
			}
			for _, tc := range []struct{ shards, ran int }{{0, fc.auto}, {1, 1}, {2, 2}} {
				if tc.shards == 2 && fc.auto == 2 {
					continue // the auto row already ran on 2 shards
				}
				res := serial
				if tc.shards != 1 {
					res = Run(spec(tc.shards))
				}
				if got := len(res.ShardStats); got != tc.ran {
					t.Errorf("%s %s Shards=%d: ran on %d shards, want %d", tp.Name, proto, tc.shards, got, tc.ran)
				}
				assertRunsEqual(t, fmt.Sprintf("%s %s Shards=%d vs serial", tp.Name, proto, tc.shards), serial, res)
			}
		}
	}
}

// TestShardedSetupInvariant: every transport of the table is attached,
// started and fed its trace with each shard working on its own goroutine,
// and what that leaves at t = 0 — every engine's pending keys and RNG
// position — and every engine's state and journal after a short run
// from there are the same whether one, two or four Ps ran the shards,
// build after build; the short run delivers the serial run's packets.
// It is the only place the baselines' Start methods run side by side, so
// CI also runs it under the race detector. The 432-host FatTree shards
// itself 6 ways, more than the Ps it runs on.
func TestShardedSetupInvariant(t *testing.T) {
	watchdog(t, 3*time.Minute)
	tp := fatTreeFor(432)
	if auto := topo.AutoShards(tp); auto < 4 {
		t.Fatalf("AutoShards(%s) = %d: the test needs a topology the default shards", tp.Name, auto)
	}
	horizon := 10 * sim.Microsecond
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.6,
		Dist: workload.WebSearch(), Horizon: horizon, Seed: 9,
	}.Generate()
	for _, row := range transports {
		proto := row.name
		spec := RunSpec{
			Protocol: proto, Topo: tp, Trace: tr,
			Horizon: horizon + horizon/2, Seed: 10, Digest: true,
			Checkpoint: &CheckpointSpec{Every: horizon, Journal: true},
		}
		serial := spec
		serial.Shards, serial.Checkpoint = 1, nil
		want := Run(serial).Digest
		end := sim.Time(spec.Horizon)
		var first [2]*checkpoint.Snapshot // at t = 0, and at the end with the run's journals
		for _, procs := range []int{1, 2, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for rep := 0; rep < 2; rep++ {
					rs := newRunState(spec, nil)
					snaps := [2]*checkpoint.Snapshot{rs.capture(0, 0)}
					rs.runTo(end)
					snaps[1] = rs.capture(end, 1)
					for i, what := range []string{"set-up", "short run (end state, journals)"} {
						if first[i] == nil {
							first[i] = snaps[i]
						} else if err := checkpoint.Compare(first[i], snaps[i]); err != nil {
							t.Errorf("%s procs=%d build %d: %s differs from the first build: %v", proto, procs, rep, what, err)
						}
					}
					if got := rs.result().Digest; got != want {
						t.Errorf("%s procs=%d build %d: digest %#016x, serial %#016x", proto, procs, rep, got, want)
					}
					rs.close()
				}
			}()
		}
	}
}
