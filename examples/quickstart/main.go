// Quickstart: simulate dcPIM on an 8-host leaf-spine with a mixed
// workload and print per-flow results. This is the smallest end-to-end
// use of the library: build a topology, a fabric, attach the protocol,
// inject flows, run, and read the collector.
package main

import (
	"fmt"

	"dcpim/internal/core"
	"dcpim/internal/netsim"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

func main() {
	// 1. A deterministic event engine: same seed ⇒ same run, always.
	eng := sim.NewEngine(42)

	// 2. A topology: 2 racks × 4 hosts, 100G access, 400G core — a small
	// version of the paper's evaluation fabric.
	tp := topo.SmallLeafSpine().Build()
	fmt.Printf("topology %s: BDP=%dB dataRTT=%v ctrlRTT=%v\n\n",
		tp.Name, tp.BDP(), tp.DataRTT(), tp.CtrlRTT())

	// 3. A fabric with per-packet spraying (dcPIM's preferred dataplane).
	fab := netsim.New(eng, tp, netsim.Config{Spray: true})

	// 4. dcPIM on every host, sharing one stats collector.
	col := stats.NewCollector()
	core.Attach(fab, core.DefaultConfig(), col)
	fab.Start()

	// 5. A handful of flows: a short flow (bypasses matching), a medium
	// flow (matched, pays one matching phase of latency), and a long
	// flow (matched, amortizes it), plus a small incast.
	flows := []workload.Flow{
		{ID: 1, Src: 0, Dst: 5, Size: 20_000, Arrival: 0},                              // short
		{ID: 2, Src: 1, Dst: 6, Size: 200_000, Arrival: 0},                             // medium
		{ID: 3, Src: 2, Dst: 7, Size: 5_000_000, Arrival: 0},                           // long
		{ID: 4, Src: 3, Dst: 5, Size: 10_000, Arrival: sim.Time(50 * sim.Microsecond)}, // short, contended
		{ID: 5, Src: 4, Dst: 5, Size: 10_000, Arrival: sim.Time(50 * sim.Microsecond)}, // short, contended
		{ID: 6, Src: 6, Dst: 0, Size: 1_000_000, Arrival: sim.Time(100 * sim.Microsecond)},
	}
	fab.Inject(&workload.Trace{Flows: flows})

	// 6. Run for 2 simulated milliseconds.
	eng.Run(sim.Time(2 * sim.Millisecond))

	// 7. Read the results.
	fmt.Printf("%-4s %-5s %-5s %12s %12s %12s %9s\n",
		"flow", "src", "dst", "size(B)", "fct", "optimal", "slowdown")
	for _, r := range col.Records() {
		fmt.Printf("%-4d %-5d %-5d %12d %12v %12v %9.2f\n",
			r.ID, r.Src, r.Dst, r.Size, r.FCT(), r.Optimal, r.Slowdown())
	}
	fmt.Printf("\ncompleted %d/%d flows, %d bytes delivered, %d simulation events\n",
		col.Completed(), len(flows), col.DeliveredBytes(), eng.Events())
}
