package experiments

import (
	"fmt"
	"io"

	"dcpim/internal/faults"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/workload"
)

// RunFaults measures resilience to structured faults (§3.5 taken beyond
// i.i.d. loss): a grid of fault intensity levels — 0 clean, 1 link flaps,
// 2 plus loss bursts and degraded links, 3 plus a switch reboot and host
// pauses — against the simulation comparator set at load 0.5. Reported
// per cell: completion rate, mean and p99 slowdown of completed flows,
// and packets destroyed by the faults themselves. What this repository
// expects of dcPIM's multi-round matching and token-window recovery is
// its rows in targets.
func RunFaults(o Options, w io.Writer) error {
	tp := leafSpineFor(o.Hosts)
	horizon := o.scaled(2 * sim.Millisecond)
	levels := []int{0, 1, 2, 3}
	fmt.Fprintf(w, "Fault resilience: FCT and completion vs fault intensity at load 0.5 (horizon %v)\n", horizon)
	fmt.Fprintf(w, "levels: 0 = clean, 1 = +link flaps, 2 = +loss bursts/degrades, 3 = +reboot/host pauses\n\n")
	tr := allToAll(tp, workload.TruncatedDist{Base: workload.IMC10(), Max: 1 << 20}, 0.5, horizon, o.Seed)
	// Every protocol at one level gets the identical schedule, so the
	// comparison is apples-to-apples: the same links die at the same
	// times under every transport.
	var cells []cell
	for _, level := range levels {
		var sched *faults.Schedule
		if level > 0 {
			sched = faults.Generate(faults.Intensity(level, o.Seed+int64(level)*1000, horizon), tp)
		}
		for _, c := range perProtocol(fmt.Sprintf("faults-level%d", level), Comparators, tr) {
			c.faults = sched
			cells = append(cells, c)
		}
	}
	// Faulted runs need more drain than clean sweeps: recovery timers
	// only fire after links return.
	fig := figure{topo: tp, horizon: horizon * 3, seed: o.Seed + 77}
	results := fig.run(o, cells)
	tbl := newTable("level", "protocol", "completed", "mean", "p99", "fault-drops")
	tbl.keys = 2
	for i, res := range results {
		s := stats.Summarize(res.Records, nil)
		tbl.add(levels[i/len(Comparators)], res.Protocol, completed(res), s.Mean, s.P99, res.Counters.FaultDrops)
	}
	tbl.write(w)
	return writeTargets(w, o, "faults", tbl)
}
