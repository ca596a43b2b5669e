package netsim

import (
	"fmt"
	"sync"

	"dcpim/internal/metrics"
	"dcpim/internal/packet"
)

// portNameTab interns the per-port gauge names. A 1024-host FatTree has
// 5120 switch ports, and a sweep re-registers the same names for every
// (load, shard, seed) cell; the table formats each name once per process
// instead of once per run. Guarded by a mutex because RunMany registers
// several runs' metrics concurrently.
var portNameTab struct {
	mu    sync.Mutex
	names [][]string // [switch][port]
}

func portName(si, pi int) string {
	t := &portNameTab
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.names) <= si {
		t.names = append(t.names, nil)
	}
	for len(t.names[si]) <= pi {
		t.names[si] = append(t.names[si], "")
	}
	if t.names[si][pi] == "" {
		t.names[si][pi] = fmt.Sprintf("netsim/sw%d/port%d/queue_bytes", si, pi)
	}
	return t.names[si][pi]
}

// RegisterMetrics instruments the fabric on reg: a computed queue-depth
// gauge per switch output port, aggregate NIC and fabric occupancy, the
// port high-water mark, and — through an Observer — per-priority drop
// counters, delivered bytes/packets and trims as cumulative time series.
// No-op when reg is nil (telemetry disabled); call before traffic is
// injected.
//
// Gauge reads are pure state inspections over fixed-order device slices,
// so sampled series are deterministic. The per-port gauges are sampled,
// not updated per packet, keeping the forwarding path untouched.
func (f *Fabric) RegisterMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	for si := range f.switches {
		for pi := range f.switches[si].ports {
			port := &f.switches[si].ports[pi]
			reg.GaugeFunc(portName(si, pi),
				func() float64 { return float64(port.queuedBytes) })
		}
	}
	reg.GaugeFunc("netsim/nic_queued_bytes", func() float64 {
		var total int64
		for i := range f.hosts {
			total += f.hosts[i].nic.queuedBytes
		}
		return float64(total)
	})
	reg.GaugeFunc("netsim/switch_queued_bytes", func() float64 {
		var total int64
		sp := f.switchPorts()
		for i := range sp {
			total += sp[i].queuedBytes
		}
		return float64(total)
	})
	reg.GaugeFunc("netsim/max_port_queue_bytes", func() float64 {
		return float64(f.MaxPortQueue())
	})

	mo := &metricsObserver{
		deliveredPkts:  reg.Counter("netsim/delivered_pkts"),
		deliveredBytes: reg.Counter("netsim/delivered_bytes"),
		trims:          reg.Counter("netsim/trims"),
	}
	for pr := 0; pr < packet.NumPriorities; pr++ {
		mo.prioDrops[pr] = reg.Counter(fmt.Sprintf("netsim/drops/prio%d", pr))
	}
	f.AddObserver(mo)
}

// metricsObserver folds packet-lifecycle events into counters so the
// Sampler can expose drops and throughput as time series rather than
// end-of-run totals.
type metricsObserver struct {
	prioDrops      [packet.NumPriorities]*metrics.Counter
	deliveredPkts  *metrics.Counter
	deliveredBytes *metrics.Counter
	trims          *metrics.Counter
}

// PacketInjected implements Observer.
func (m *metricsObserver) PacketInjected(int, *packet.Packet) {}

// PacketDelivered implements Observer.
func (m *metricsObserver) PacketDelivered(_ int, p *packet.Packet) {
	m.deliveredPkts.Inc()
	if p.Kind == packet.Data {
		m.deliveredBytes.Add(int64(p.Size))
	}
}

// PacketDropped implements Observer.
func (m *metricsObserver) PacketDropped(p *packet.Packet) {
	pr := p.Priority
	if int(pr) >= packet.NumPriorities {
		pr = packet.NumPriorities - 1
	}
	m.prioDrops[pr].Inc()
}

// PacketTrimmed implements Observer.
func (m *metricsObserver) PacketTrimmed(*packet.Packet) {
	m.trims.Inc()
}
