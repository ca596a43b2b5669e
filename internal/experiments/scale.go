package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"dcpim/internal/sim"
	"dcpim/internal/workload"
)

// ScaleResult is one cell of the hyperscale campaign, serialized into
// BENCH_scale.json so CI can archive the scaling trajectory per commit.
type ScaleResult struct {
	Hosts        int     `json:"hosts"`
	Load         float64 `json:"load"`
	Shards       int     `json:"shards"`         // the count that ran: len(RunResult.ShardStats)
	Auto         bool    `json:"auto,omitempty"` // no count was requested; Shards is what the topology resolved to
	Procs        int     `json:"procs"`          // GOMAXPROCS the cell ran under (the process's; information, not an axis)
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Flows        int64   `json:"flows"`
	Completed    int64   `json:"completed"`
	Epochs       uint64  `json:"epochs"`
	SkippedPct   float64 `json:"skipped_pct"`
	Digest       string  `json:"digest"`
	// Critical is Σ over epochs of the most events any one shard executed
	// (Events when serial). Events over it bounds the cell's speedup on a
	// core per shard; it is a count, equal across repeats of a seed.
	Critical uint64 `json:"critical_events"`
	// WireS is the cell's set-up wall time (RunResult.Wire) and SerialFrac
	// the share of its whole wall time spent outside the shard goroutines
	// (RunResult.Serial / Wall; 0 when serial, where the question does not
	// arise). Both are clock readings: they vary run to run and with the
	// box, unlike Critical.
	WireS      float64 `json:"wire_s"`
	SerialFrac float64 `json:"serial_frac"`
	// BusyMS is each shard's wall time inside its epochs
	// (ShardStats.Busy) and OverheadMS Σ over epochs of the epoch's wall
	// time minus its busiest shard's (RunResult.Overhead): where a sharded
	// stretch's time went, shard by shard and to the barrier. Clock
	// readings like WireS; absent when serial.
	BusyMS     []float64 `json:"busy_ms,omitempty"`
	OverheadMS float64   `json:"epoch_overhead_ms"`
}

// bound renders events / critical events: what the cell's epochs allow a
// core per shard and a free barrier to gain over one core. Measured far
// under it with cores to spare is barrier cost; a bound far under the
// shard count is imbalance; measured under it with fewer cores than
// shards is the box. A serial cell has nothing to bound.
func (r ScaleResult) bound() string {
	if r.Shards == 1 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(r.Events)/float64(r.Critical))
}

// amdahl is the wall-clock counterpart of bound: the speedup over one core
// that the cell's serial stretch allows on the given number of cores, were
// the sharded stretches to spread perfectly. The row ran its sharded
// stretches on min(Procs, Shards) cores, so they hold at most that many
// times their wall time in work; charging them the full amount keeps the
// figure an upper bound.
func (r ScaleResult) amdahl(cores int) float64 {
	ran := min(r.Procs, r.Shards)
	serial, shared := r.SerialFrac, (1-r.SerialFrac)*float64(ran)
	return (serial + shared) / (serial + shared/float64(min(cores, r.Shards)))
}

// serialLabel renders the serial share and the Amdahl speedups it implies
// at 4, 8 and 16 cores, to sit beside bound on a row.
func (r ScaleResult) serialLabel() string {
	if r.SerialFrac == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%% %.1f/%.1f/%.1fx", 100*r.SerialFrac, r.amdahl(4), r.amdahl(8), r.amdahl(16))
}

// busyLabel renders the busiest shard's busy time and the epochs'
// overhead, in milliseconds, to sit beside serialLabel on a row.
func (r ScaleResult) busyLabel() string {
	if len(r.BusyMS) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f/%.1f", slices.Max(r.BusyMS), r.OverheadMS)
}

// shardsLabel is the row's shards column: the count, marked when it was
// resolved rather than requested.
func (r ScaleResult) shardsLabel() string {
	if r.Auto {
		return fmt.Sprintf("auto=%d", r.Shards)
	}
	return fmt.Sprint(r.Shards)
}

// scaleHorizon is the per-tier trace horizon: the hyperscale trees carry
// ~8× the event rate of the 1024-host tree, so their cells run a shorter
// horizon to keep the full campaign's wall time bounded without thinning
// the grid.
func scaleHorizon(o Options, hosts int) sim.Duration {
	h := 100 * sim.Microsecond
	if hosts >= 4096 {
		h = 25 * sim.Microsecond
	}
	return o.scaled(h)
}

// ScaleMachine stamps BENCH_scale.json with the box it was measured on:
// a speedup figure means nothing without the core count beside it.
type ScaleMachine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"` // /proc/cpuinfo model name; empty where there is none
	Go         string `json:"go"`
}

// ScaleReport is the BENCH_scale.json document.
type ScaleReport struct {
	Machine ScaleMachine  `json:"machine"`
	Rows    []ScaleResult `json:"rows"`
}

func scaleMachine() ScaleMachine {
	m := ScaleMachine{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Go: runtime.Version()}
	buf, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			m.CPU = strings.TrimSpace(v)
			break
		}
	}
	return m
}

// scaleCellLabel names one campaign cell's snapshot files. Every axis
// that changes the run is in the name, so each cell's stream has a label
// of its own and -bisect compares two campaigns cell by cell.
func scaleCellLabel(hosts int, load float64, shards int) string {
	return fmt.Sprintf("scale-h%d-l%02d-s%d", hosts, int(load*100), shards)
}

// RunScale is the hyperscale campaign (DESIGN.md §13.2): it sweeps the
// FatTree over hosts × load × shard count, reporting wall time, event
// throughput, barrier profile (epochs dispatched vs idle-skipped), and
// the delivered-stream digest for every cell. Within one (hosts, load)
// group the digest must be identical at every shard count — the run
// fails otherwise, making the campaign itself a determinism check at
// scales the unit tests don't reach.
//
// Every group ends with the auto row — no count requested, so the cell
// runs on whatever topo.AutoShards resolves to — next to the explicit
// counts it was chosen from; shards=1 stays the serial baseline.
//
// The campaign runs at the process's GOMAXPROCS (set it in the
// environment) and stamps it into every row. Flags narrow the sweep:
// -hosts and a non-zero -shards pin those axes, and quick passes
// (-scale < 1) keep only the low-load point. With -metrics DIR set, the
// machine-readable rows land in DIR/BENCH_scale.json under a machine
// stamp; with -checkpoint/-checkpoint-dir set each cell snapshots at the
// cadence under its own label.
func RunScale(o Options, w io.Writer) error {
	hostSet := []int{128, 432, 1024, 8192}
	if o.Hosts != 0 {
		hostSet = []int{o.Hosts}
	}
	loads := []float64{0.3, 0.6}
	if o.Scale > 0 && o.Scale < 1 {
		loads = loads[:1]
	}
	// Explicit counts, 1 first as the serial baseline; the trailing 0
	// requests nothing and becomes the auto row.
	shardsFor := func(hosts int) []int {
		if o.Shards != 0 {
			return []int{o.Shards}
		}
		switch {
		case hosts >= 4096:
			return []int{1, 8, 0}
		case hosts >= 1024:
			return []int{1, 8, 16, 64, 0}
		case hosts >= 256:
			return []int{1, 4, 6, 12, 0}
		default:
			return []int{1, 2, 4, 8, 0}
		}
	}
	machine := scaleMachine()

	var rows []ScaleResult
	fmt.Fprintf(w, "sweep pool: %d workers; GOMAXPROCS %d of %d CPUs (%s)\n",
		o.EffectiveWorkers(), machine.GOMAXPROCS, machine.NumCPU, machine.CPU)
	fmt.Fprintf(w, "%6s %5s %7s %10s %8s %9s %12s %7s %8s %7s %21s %13s  %s\n",
		"hosts", "load", "shards", "wall_ms", "wire_ms", "events", "events/s", "flows", "skipped", "bound", "serial amdahl@4/8/16", "busy/ovh_ms", "digest")
	for _, hosts := range hostSet {
		tp := fatTreeFor(hosts)
		horizon := scaleHorizon(o, hosts)
		for _, load := range loads {
			tr := allToAll(tp, workload.WebSearch(), load, horizon, o.Seed)
			var groupDigest uint64
			haveDigest := false
			for _, shards := range shardsFor(hosts) {
				spec := RunSpec{
					Protocol: DCPIM, Topo: tp, Trace: tr,
					Horizon: horizon + horizon/2, Seed: o.Seed + 7,
					Shards: shards, Digest: true,
					Checkpoint: o.checkpoint(scaleCellLabel(hosts, load, shards)),
				}
				elapsed := WallTimer()
				res := runClocked(spec, elapsed)
				wall := elapsed()
				if !haveDigest {
					groupDigest, haveDigest = res.Digest, true
				} else if res.Digest != groupDigest {
					return fmt.Errorf("scale: hosts=%d load=%.1f shards=%d digest %#016x diverges from group %#016x",
						hosts, load, shards, res.Digest, groupDigest)
				}
				var dispatched, skipped, epochs, critical uint64
				for _, s := range res.ShardStats {
					dispatched += s.Dispatched
					skipped += s.Skipped
					critical += s.Critical
					if n := s.Dispatched + s.Skipped; n > epochs {
						epochs = n
					}
				}
				var skippedPct float64
				if dispatched+skipped > 0 {
					skippedPct = 100 * float64(skipped) / float64(dispatched+skipped)
				}
				// A row whose count differs from the request is the auto row.
				ran := len(res.ShardStats)
				row := ScaleResult{
					Hosts: hosts, Load: load, Shards: ran, Auto: ran != shards, Procs: machine.GOMAXPROCS,
					WallMS:       ms(wall),
					Events:       res.Events,
					EventsPerSec: float64(res.Events) / wall.Seconds(),
					Flows:        res.Started,
					Completed:    res.Col.Completed(),
					Epochs:       epochs,
					SkippedPct:   skippedPct,
					Digest:       fmt.Sprintf("%#016x", res.Digest),
					Critical:     critical,
					WireS:        res.Wire.Seconds(),
				}
				if ran > 1 && res.Wall > 0 {
					row.SerialFrac = res.Serial.Seconds() / res.Wall.Seconds()
					row.OverheadMS = ms(res.Overhead)
					for _, s := range res.ShardStats {
						row.BusyMS = append(row.BusyMS, ms(s.Busy))
					}
				}
				rows = append(rows, row)
				fmt.Fprintf(w, "%6d %5.1f %7s %10.1f %8.1f %9d %12.0f %7d %7.1f%% %7s %21s %13s  %s\n",
					hosts, load, row.shardsLabel(), row.WallMS, 1000*row.WireS, row.Events,
					row.EventsPerSec, row.Flows, row.SkippedPct, row.bound(), row.serialLabel(), row.busyLabel(), row.Digest)
			}
		}
	}
	printScaleSpeedups(w, rows)
	if o.MetricsDir != "" {
		buf, err := json.MarshalIndent(ScaleReport{Machine: machine, Rows: rows}, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		path := filepath.Join(o.MetricsDir, "BENCH_scale.json")
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s (%d rows)\n", path, len(rows))
	}
	return nil
}

// ms renders a clock reading in milliseconds, to the microsecond.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// printScaleSpeedups condenses the campaign into the figure the grid is
// for: per (hosts, load), events/sec of the best explicit count and of
// the auto row over the shards=1 row of the same group, each beside the
// bound its critical path puts on it. Groups without the serial row (a
// pinned -shards) are skipped.
func printScaleSpeedups(w io.Writer, rows []ScaleResult) {
	type key struct {
		hosts int
		load  float64
	}
	type group struct{ base, best, auto ScaleResult }
	groups := map[key]*group{}
	var order []key
	for _, r := range rows {
		k := key{r.Hosts, r.Load}
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
			order = append(order, k)
		}
		switch {
		case r.Auto:
			g.auto = r
		case r.Shards == 1:
			g.base = r
		case r.EventsPerSec > g.best.EventsPerSec:
			g.best = r
		}
	}
	printed := false
	for _, k := range order {
		g := groups[k]
		b := g.base.EventsPerSec
		if b <= 0 {
			continue
		}
		if !printed {
			fmt.Fprintf(w, "speedup vs shards=1 of the same (hosts, load):\n")
			printed = true
		}
		fmt.Fprintf(w, "  %5d hosts load %.1f: %.0f events/s serial", k.hosts, k.load, b)
		for _, r := range []ScaleResult{g.best, g.auto} {
			if r.EventsPerSec > 0 {
				fmt.Fprintf(w, "; %.2fx at %s shards (bound %s on >= %d cores)",
					r.EventsPerSec/b, r.shardsLabel(), r.bound(), r.Shards)
			}
		}
		fmt.Fprintln(w)
	}
}
