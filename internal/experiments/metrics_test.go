package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"dcpim/internal/core"
	"dcpim/internal/netsim"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
)

// metricsGoldenSpec is goldenSpec with the telemetry layer on.
func metricsGoldenSpec(t *testing.T, proto string) RunSpec {
	t.Helper()
	spec := goldenSpec(t, proto, false)
	spec.Metrics = &MetricsSpec{Label: "golden-" + proto}
	return spec
}

// TestMetricsSamplerDeterminism is the telemetry layer's core guarantee:
// the sampled CSV series and JSON report are byte-identical between a
// serial run and RunMany at any worker count, and turning metrics on
// does not perturb the simulated packet stream (the golden digest is
// unchanged).
func TestMetricsSamplerDeterminism(t *testing.T) {
	serial := Run(metricsGoldenSpec(t, DCPIM))
	if serial.Digest != goldenDigestClean {
		t.Errorf("metrics-enabled digest %#016x != golden %#016x: sampling perturbed the run",
			serial.Digest, goldenDigestClean)
	}
	if len(serial.MetricsCSV) == 0 || len(serial.MetricsJSON) == 0 {
		t.Fatal("metrics run produced no CSV/JSON")
	}
	for _, workers := range []int{4, 8} {
		specs := make([]RunSpec, workers)
		for i := range specs {
			specs[i] = metricsGoldenSpec(t, DCPIM)
		}
		for i, res := range RunMany(specs, workers) {
			if !bytes.Equal(res.MetricsCSV, serial.MetricsCSV) {
				t.Errorf("workers=%d run %d: CSV differs from serial", workers, i)
			}
			if !bytes.Equal(res.MetricsJSON, serial.MetricsJSON) {
				t.Errorf("workers=%d run %d: JSON differs from serial", workers, i)
			}
		}
	}
}

// TestMetricsSyncPoints pins the sampling cadence itself: the CSV's time
// column is exactly 0, BinWidth, 2·BinWidth … up to the horizon — serial,
// at the auto count, on two shards, and checkpointed, where the run is
// driven in windows whose ends fall between sync points. One epoch loop
// serves every shard count, and the determinism tests only compare these
// runs with each other, so a cadence bug common to all of them would pass
// there. The watchdog turns an epoch loop that stops advancing into a
// failure instead of a hang.
func TestMetricsSyncPoints(t *testing.T) {
	watchdog(t, time.Minute)
	for _, tc := range []struct {
		name   string
		shards int
		ckpt   bool
	}{
		{"serial", 1, false},
		{"auto", 0, false},
		{"shards=2", 2, false},
		{"serial checkpointed", 1, true},
	} {
		spec := metricsGoldenSpec(t, DCPIM)
		spec.Shards = tc.shards
		if tc.ckpt {
			spec.Checkpoint = &CheckpointSpec{Every: 73*sim.Microsecond + 3}
		}
		res := Run(spec)
		iv := 10 * sim.Microsecond // BinWidth's default
		rows := strings.Split(strings.TrimSuffix(string(res.MetricsCSV), "\n"), "\n")[1:]
		if want := int(spec.Horizon/iv) + 1; len(rows) != want {
			t.Errorf("%s: %d sampled rows, want %d (0 to %v every %v)", tc.name, len(rows), want, spec.Horizon, iv)
		}
		for i, row := range rows {
			at, _, _ := strings.Cut(row, ",")
			if want := strconv.FormatInt(int64(i)*int64(iv), 10); at != want {
				t.Errorf("%s: row %d sampled at %s ps, want %s", tc.name, i, at, want)
				break
			}
		}
	}
}

// TestMetricsSyncInstant pins which row an event at a sync instant lands
// in: a counter bumped by an event at exactly k·BinWidth appears from row
// k+1 on, never in row k, because a sync point samples after every event
// before its instant and before any event at it — the rule that puts a
// byte delivered at exactly k·BinWidth in utilization bin k. Host 0 and
// the last host each bump the counter, so on two shards both shards add
// to it; the checkpointed run's windows end exactly on sync points. A
// bump at the horizon itself reaches the end-of-run value but no row.
func TestMetricsSyncInstant(t *testing.T) {
	watchdog(t, time.Minute)
	const iv = 10 * sim.Microsecond
	const horizon = 200 * sim.Microsecond
	probe := transportNamed(DCPIM)
	probe.name = "probe"
	probe.attach = func(fab *netsim.Fabric, col *stats.Collector, cfg *core.Config) {
		transportNamed(DCPIM).attach(fab, col, cfg)
		bumps := col.Counter("probe/bumps")
		for _, h := range []int{0, fab.Topology().NumHosts - 1} {
			sc := col.ForShard(fab.ShardOfHost(h))
			for k := 1; k <= int(horizon/iv); k++ {
				fab.HostEngine(h).Schedule(sim.Time(k)*sim.Time(iv), func() { sc.Add(bumps, 1) })
			}
		}
	}
	transports = append(transports, probe)
	defer func() { transports = transports[:len(transports)-1] }()

	for _, tc := range []struct {
		name   string
		shards int
		ckpt   bool
	}{
		{"serial", 1, false},
		{"shards=2", 2, false},
		{"shards=2 checkpointed", 2, true},
	} {
		spec := metricsGoldenSpec(t, "probe")
		spec.Horizon, spec.BinWidth, spec.Shards = horizon, iv, tc.shards
		if tc.ckpt {
			spec.Checkpoint = &CheckpointSpec{Every: 3 * iv}
		}
		res := Run(spec)
		lines := strings.Split(strings.TrimSuffix(string(res.MetricsCSV), "\n"), "\n")
		col := slices.Index(strings.Split(lines[0], ","), "probe/bumps")
		if col < 0 {
			t.Fatalf("%s: no probe/bumps column in %q", tc.name, lines[0])
		}
		for k, row := range lines[1:] {
			want := 0
			if k > 0 {
				want = 2 * (k - 1) // bumps at iv … (k−1)·iv, on two hosts
			}
			if got := strings.Split(row, ",")[col]; got != strconv.Itoa(want) {
				t.Errorf("%s: row %d (t=%v) holds %s bumps, want %d", tc.name, k, sim.Duration(k)*iv, got, want)
				break
			}
		}
		var rep RunReport
		if err := json.Unmarshal(res.MetricsJSON, &rep); err != nil {
			t.Fatal(err)
		}
		for _, c := range rep.Counters {
			if want := 2 * int64(horizon/iv); c.Name == "probe/bumps" && c.Value != want {
				t.Errorf("%s: end-of-run probe/bumps %d, want %d", tc.name, c.Value, want)
			}
		}
	}
}

// TestMetricsContent sanity-checks the emitted artifacts of a dcPIM run:
// the CSV has the expected header layout and the report carries the
// instruments the paper's arguments lean on (token-window occupancy,
// unscheduled-bypass split, per-round matching, fabric queues).
func TestMetricsContent(t *testing.T) {
	res := Run(metricsGoldenSpec(t, DCPIM))

	lines := strings.Split(string(res.MetricsCSV), "\n")
	if len(lines) < 3 {
		t.Fatalf("CSV too short: %d lines", len(lines))
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "time_ps" {
		t.Fatalf("CSV header starts %q, want time_ps", header[0])
	}
	for _, want := range []string{
		"core/tokens_outstanding", "core/unsched_bytes", "core/sched_bytes",
		"core/match/round0_accepted_channels",
		"netsim/nic_queued_bytes", "netsim/max_port_queue_bytes",
	} {
		found := false
		for _, h := range header {
			if h == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("CSV header missing column %q", want)
		}
	}
	for i := 2; i < len(header); i++ {
		if header[i] < header[i-1] {
			t.Fatalf("CSV columns not sorted: %q after %q", header[i], header[i-1])
		}
	}

	var rep RunReport
	if err := json.Unmarshal(res.MetricsJSON, &rep); err != nil {
		t.Fatalf("run report: %v", err)
	}
	if rep.Protocol != DCPIM || rep.Label != "golden-dcpim" {
		t.Fatalf("report identity: %+v", rep)
	}
	if rep.Samples != len(lines)-2 { // header + trailing newline
		t.Errorf("report samples %d, CSV rows %d", rep.Samples, len(lines)-2)
	}
	counters := map[string]int64{}
	for _, c := range rep.Counters {
		counters[c.Name] = c.Value
	}
	if counters["core/tokens_issued"] == 0 {
		t.Error("no tokens issued in a loaded dcPIM run")
	}
	if counters["core/unsched_bytes"] == 0 || counters["core/sched_bytes"] == 0 {
		t.Error("unscheduled/scheduled byte split not populated")
	}
	if counters["netsim/delivered_bytes"] == 0 {
		t.Error("fabric delivered-bytes counter not populated")
	}
}

// TestMetricsFilesWritten covers the -metrics dir/ path: files land under
// the directory with sanitized names.
func TestMetricsFilesWritten(t *testing.T) {
	dir := t.TempDir()
	spec := metricsGoldenSpec(t, DCPIM)
	spec.Metrics.Dir = dir
	spec.Metrics.Label = "fig weird/label"
	res := Run(spec)

	csvPath := filepath.Join(dir, "fig-weird-label.csv")
	jsonPath := filepath.Join(dir, "fig-weird-label.json")
	csvB, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
	jsonB, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("JSON not written: %v", err)
	}
	if !bytes.Equal(csvB, res.MetricsCSV) || !bytes.Equal(jsonB, res.MetricsJSON) {
		t.Fatal("on-disk artifacts differ from RunResult bytes")
	}
}

// TestMetricsAcrossProtocols runs every transport with telemetry enabled:
// instruments register without name collisions and each protocol
// populates its own section, under its own name as the prefix (dcPIM's
// is "core/"). Fastpass registers no instruments.
func TestMetricsAcrossProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("transport metrics sweep")
	}
	prefixes := map[string]string{
		DCPIM:      "core/",
		Homa:       "homa/",
		HomaAeolus: "homa-aeolus/",
		PHost:      "phost/",
		NDP:        "ndp/",
		HPCC:       "hpcc/",
		DCTCP:      "dctcp/",
		Cubic:      "cubic/",
		Fastpass:   "",
	}
	if len(transports) != len(prefixes) {
		t.Errorf("%d transports in the table, %d expected", len(transports), len(prefixes))
	}
	for _, row := range transports {
		proto := row.name
		prefix, ok := prefixes[proto]
		if !ok {
			t.Errorf("%s: not an expected transport", proto)
			continue
		}
		res := Run(metricsGoldenSpec(t, proto))
		var rep RunReport
		if err := json.Unmarshal(res.MetricsJSON, &rep); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if prefix == "" {
			if bytes.Contains(res.MetricsJSON, []byte(`"`+proto+`/`)) {
				t.Errorf("%s: registers instruments, want none", proto)
			}
			continue
		}
		found := false
		for _, ctr := range rep.Counters {
			if strings.HasPrefix(ctr.Name, prefix) && ctr.Value > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no populated instrument under %q", proto, prefix)
		}
	}
}

// TestEveryFigureWritesPerCellArtifacts: each figure's quick run under
// -metrics and -checkpoint writes one CSV series, one JSON report and a
// snapshot stream per cell, under a label no other cell of the figure
// shares.
func TestEveryFigureWritesPerCellArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure once more")
	}
	cells := map[string]int{
		"fig3a": 5 * len(Comparators), // five bisection probes per protocol
		"fig3b": 3 * len(Comparators), "fig3cde": 3 * len(Comparators),
		"fig4a": 4, "fig4b": 4, "fig4c": 4,
		"fig5ab": 3 * 3, "fig5cd": len(Comparators), // quick fig5cd runs IMC10 only
		"fig6": 5 + 4 + 5, "fig7": 3, "fastpass": 2, "ablation": 2 + 3,
		"faults": 4 * len(Comparators),
	}
	for _, c := range quickCases() {
		want, ok := cells[c.name]
		if !ok {
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			o := c.o
			o.MetricsDir, o.CheckpointDir = dir, dir
			o.CheckpointEvery = 40 * sim.Microsecond
			if err := c.e.Run(o, io.Discard); err != nil {
				t.Fatal(err)
			}
			stems := func(pattern string) map[string]bool {
				paths, err := filepath.Glob(filepath.Join(dir, pattern))
				if err != nil {
					t.Fatal(err)
				}
				set := map[string]bool{}
				for _, p := range paths {
					// <label>.csv, <label>.json, <label>.ck<index>.dcpimck
					stem := strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
					if filepath.Ext(p) == ".dcpimck" {
						stem = strings.TrimSuffix(stem, filepath.Ext(stem))
					}
					set[stem] = true
				}
				return set
			}
			csvs, reports := stems("*.csv"), stems("*.json")
			if len(csvs) != want || len(reports) != want {
				t.Fatalf("%d CSV series and %d JSON reports, want one each for %d cells", len(csvs), len(reports), want)
			}
			snaps := stems("*.dcpimck")
			for label := range csvs {
				if !reports[label] || !snaps[label] {
					t.Errorf("cell %s: report %v, snapshots %v", label, reports[label], snaps[label])
				}
			}
			if len(snaps) != want {
				t.Errorf("%d snapshot labels, want %d", len(snaps), want)
			}
		})
	}
}
