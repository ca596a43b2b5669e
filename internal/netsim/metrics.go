package netsim

import (
	"fmt"

	"dcpim/internal/stats"
)

// RegisterMetrics registers the fabric's columns on the run's collector:
// a queue-depth gauge per switch output port, aggregate NIC and fabric
// occupancy, the port high-water mark, and the merged Counters —
// delivered packets and bytes, trims, and the disjoint drop, ECN and PFC
// counts — as cumulative time series. No-op unless col is instrumented;
// call before traffic is injected.
//
// Every column is a pure read of state the sync point has settled
// (Counters merge there), over fixed-order device slices, so sampled
// series are deterministic and the forwarding path is untouched.
func (f *Fabric) RegisterMetrics(col *stats.Collector) {
	if !col.Instrumented() {
		return
	}
	for si := range f.switches {
		for pi := range f.switches[si].ports {
			port := &f.switches[si].ports[pi]
			col.GaugeFunc(fmt.Sprintf("netsim/sw%d/port%d/queue_bytes", si, pi), func() int64 { return port.queuedBytes })
		}
	}
	col.GaugeFunc("netsim/nic_queued_bytes", func() int64 {
		var total int64
		for i := range f.hosts {
			total += f.hosts[i].nic.queuedBytes
		}
		return total
	})
	col.GaugeFunc("netsim/switch_queued_bytes", func() int64 {
		var total int64
		sp := f.switchPorts()
		for i := range sp {
			total += sp[i].queuedBytes
		}
		return total
	})
	col.GaugeFunc("netsim/max_port_queue_bytes", f.MaxPortQueue)

	c := &f.Counters
	col.CounterFunc("netsim/delivered_pkts", func() int64 { return c.DeliveredData + c.DeliveredCtrl })
	for _, k := range []struct {
		name string
		v    *int64
	}{
		{"netsim/delivered_bytes", &c.DeliveredBytes},
		{"netsim/trims", &c.Trims},
		{"netsim/data_drops", &c.DataDrops},
		{"netsim/ctrl_drops", &c.CtrlDrops},
		{"netsim/aeolus_drops", &c.AeolusDrops},
		{"netsim/host_drops", &c.HostDrops},
		{"netsim/fault_drops", &c.FaultDrops},
		{"netsim/ecn_marks", &c.ECNMarks},
		{"netsim/pfc_pauses", &c.PFCPauses},
		{"netsim/pfc_resumes", &c.PFCResumes},
	} {
		v := k.v
		col.CounterFunc(k.name, func() int64 { return *v })
	}
}
