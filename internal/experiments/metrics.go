package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dcpim/internal/sim"
	"dcpim/internal/stats"
)

// MetricsSpec enables the telemetry layer for one run: the fabric and
// protocol register their instruments on the run's collector, which
// samples them every RunSpec.BinWidth of simulated time. The sampled
// series lands in RunResult.MetricsCSV and the end-of-run report in
// RunResult.MetricsJSON; when Dir is non-empty both are also written to
// <Dir>/<label>.csv and <Dir>/<label>.json.
type MetricsSpec struct {
	// Dir, when non-empty, receives the CSV series and JSON report.
	Dir string
	// Label names the output files (sanitized to [A-Za-z0-9._-]);
	// empty defaults to "<protocol>-seed<seed>".
	Label string
}

// RunReport is the JSON run-report schema emitted next to the CSV series:
// identifying fields plus the final value of every instrument, each list
// sorted by instrument name.
type RunReport struct {
	Label      string            `json:"label"`
	Protocol   string            `json:"protocol"`
	Seed       int64             `json:"seed"`
	HorizonPs  int64             `json:"horizon_ps"`
	IntervalPs int64             `json:"interval_ps"`
	Samples    int               `json:"samples"`
	Counters   []stats.NameValue `json:"counters"`
	Gauges     []stats.NameValue `json:"gauges"`
}

// label resolves an output-file stem from a MetricsSpec's or
// CheckpointSpec's Label: l, or "<protocol>-seed<seed>" when l is empty,
// sanitized.
func (spec RunSpec) label(l string) string {
	if l == "" {
		l = fmt.Sprintf("%s-seed%d", spec.Protocol, spec.Seed)
	}
	return sanitizeLabel(l)
}

// sanitizeLabel maps anything outside [A-Za-z0-9._-] to '-' so labels are
// always safe file stems.
func sanitizeLabel(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			b[i] = '-'
		}
	}
	return string(b)
}

// emitMetrics serializes the run's telemetry into CSV + JSON bytes and,
// when spec.Metrics.Dir is set, writes them to disk. Serialization is
// deterministic: columns sort by name, times are integer picoseconds, and
// JSON field order is fixed by the RunReport struct. File-system failures
// panic — the output directory is caller-provided configuration.
func emitMetrics(spec RunSpec, col *stats.Collector, interval sim.Duration) (csvB, jsonB []byte) {
	var buf bytes.Buffer
	if err := col.WriteCSV(&buf); err != nil {
		panic(fmt.Sprintf("experiments: metrics CSV: %v", err))
	}
	csvB = append([]byte(nil), buf.Bytes()...)

	rep := RunReport{
		Label:      spec.label(spec.Metrics.Label),
		Protocol:   spec.Protocol,
		Seed:       spec.Seed,
		HorizonPs:  int64(spec.Horizon),
		IntervalPs: int64(interval),
		Samples:    col.Samples(),
	}
	rep.Counters, rep.Gauges = col.Values()
	var err error
	jsonB, err = json.MarshalIndent(rep, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("experiments: metrics JSON: %v", err))
	}
	jsonB = append(jsonB, '\n')

	if dir := spec.Metrics.Dir; dir != "" {
		stem := filepath.Join(dir, rep.Label)
		if err := os.WriteFile(stem+".csv", csvB, 0o644); err != nil {
			panic(fmt.Sprintf("experiments: writing metrics: %v", err))
		}
		if err := os.WriteFile(stem+".json", jsonB, 0o644); err != nil {
			panic(fmt.Sprintf("experiments: writing metrics: %v", err))
		}
	}
	return csvB, jsonB
}
