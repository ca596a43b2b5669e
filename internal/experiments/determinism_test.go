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

// goldenSpec builds the fixed-seed digest run. Every call constructs a
// fresh trace and topology so serial and parallel executions share
// nothing.
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

// Golden delivered-stream digests for goldenSpec. If a deliberate
// behavior change shifts the packet stream, rerun
//
//	go test ./internal/experiments -run TestGoldenDigest -v
//
// and copy the measured digests printed in the failure. A change here
// must be explainable by the commit touching protocol or fabric timing.
// (Last regeneration: sharded execution gave every device its own
// seed-derived RNG stream and made the digest a per-host fold, both of
// which shift the stream and its hash once, for every shard count.)
const (
	goldenDigestClean   uint64 = 0x1eb6e81d4616af03
	goldenDigestFaulted uint64 = 0x68dea6ffa9e57f4c
)

// TestGoldenDigest locks the delivered-packet event stream of a
// fixed-seed dcPIM run — with and without faults — to checked-in
// digests, and requires serial and parallel RunMany execution to agree
// bit-for-bit at any worker count.
func TestGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults bool
		want   uint64
	}{
		{"clean", false, goldenDigestClean},
		{"faulted", true, goldenDigestFaulted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := Run(goldenSpec(t, DCPIM, tc.faults))
			if serial.Digest == 0 {
				t.Fatal("digest not computed")
			}
			if serial.Digest != tc.want {
				t.Errorf("digest %#016x, want %#016x (see regeneration note)", serial.Digest, tc.want)
			}
			specs := make([]RunSpec, 4)
			for i := range specs {
				specs[i] = goldenSpec(t, DCPIM, tc.faults)
			}
			for i, res := range RunMany(specs, 4) {
				if res.Digest != serial.Digest {
					t.Errorf("parallel run %d digest %#016x != serial %#016x", i, res.Digest, serial.Digest)
				}
			}
		})
	}
}

// goldenPerTransport pins goldenSpec's clean and faulted digests for
// every row of the transports table, so a refactor of any baseline that
// moves its packet stream fails here by name. dcPIM's pair is the golden
// pair above; regenerate the rest the same way.
var goldenPerTransport = map[string][2]uint64{
	DCPIM:      {goldenDigestClean, goldenDigestFaulted},
	HomaAeolus: {0x16c0ff598a7d3407, 0x9b58b3afa0127f5d},
	Homa:       {0xa0d6ae970e962384, 0xc7b5a4323276b099},
	NDP:        {0x6d45649ef3990d5f, 0x101de7773fb80f5a},
	HPCC:       {0x5348fd6d00b2b713, 0xebc265a478a536ee},
	PHost:      {0x244f4ddd12d6722e, 0x6e8b923150b8686f},
	DCTCP:      {0x0db33f7645a33bad, 0x73e9cd8dc5ce3091},
	Cubic:      {0xd91224b1850367dd, 0xd33372d2f40354b4},
	Fastpass:   {0x8cd320e16f42ce4d, 0xb2aa2652edbe1f8b},
}

// TestGoldenDigestPerProtocol locks every transport's clean and faulted
// delivered stream to goldenPerTransport, and requires that faults change
// the stream while reruns do not.
func TestGoldenDigestPerProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("per-transport digest sweep")
	}
	if len(goldenPerTransport) != len(transports) {
		t.Fatalf("%d pinned transports, %d in the table", len(goldenPerTransport), len(transports))
	}
	for _, tr := range transports {
		want, ok := goldenPerTransport[tr.name]
		if !ok {
			t.Errorf("%s: no pinned digests", tr.name)
			continue
		}
		clean := Run(goldenSpec(t, tr.name, false))
		again := Run(goldenSpec(t, tr.name, false))
		faulted := Run(goldenSpec(t, tr.name, true))
		if clean.Digest != again.Digest {
			t.Errorf("%s: rerun digest %#x != %#x", tr.name, again.Digest, clean.Digest)
		}
		if clean.Digest == faulted.Digest {
			t.Errorf("%s: fault schedule did not change delivered stream (%#x)", tr.name, clean.Digest)
		}
		if clean.Digest != want[0] || faulted.Digest != want[1] {
			t.Errorf("%s: digests clean %#016x faulted %#016x, want %#016x %#016x",
				tr.name, clean.Digest, faulted.Digest, want[0], want[1])
		}
	}
}

// TestShardedByteIdentity is the sharded engine's core invariant: one
// seed, run serially and across 2 and 4 shards, produces bit-identical
// digests, flow records, counters, and sampled metrics artifacts — with
// and without a fault schedule. goldenSpec's topology (leafspine-8: two
// racks, two spines) splits into at most 4 single-switch shards, so 4
// is the hardest cut: every switch↔switch link is a shard boundary.
func TestShardedByteIdentity(t *testing.T) {
	watchdog(t, time.Minute)
	sharded := func(t *testing.T, withFaults bool, shards int) RunSpec {
		spec := goldenSpec(t, DCPIM, withFaults)
		spec.Metrics = &MetricsSpec{Label: "shard"}
		spec.Shards = shards
		return spec
	}
	for _, tc := range []struct {
		name   string
		faults bool
		want   uint64
	}{
		{"clean", false, goldenDigestClean},
		{"faulted", true, goldenDigestFaulted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial := Run(sharded(t, tc.faults, 1))
			if serial.Digest != tc.want {
				t.Fatalf("serial digest %#016x, want golden %#016x", serial.Digest, tc.want)
			}
			for _, shards := range []int{2, 4} {
				res := Run(sharded(t, tc.faults, shards))
				if res.Digest != serial.Digest {
					t.Errorf("shards=%d digest %#016x != serial %#016x", shards, res.Digest, serial.Digest)
				}
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
