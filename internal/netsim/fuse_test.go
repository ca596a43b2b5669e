package netsim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
)

// Tests for the one-event switch hop (hopFused, DESIGN.md §8.1.2): on a
// fabric where fuseHops holds, the forward a transmission schedules
// directly runs exactly where the arrival's forward a SwitchDelay later
// would have.

// TestFuseHopsCondition: the condition holds for every 100G/400G fabric the
// tests and the benchmark build and fails for the 10G testbed, whose MTU
// serialization (1.2 µs) outlasts the 450 ns switch traversal; and the
// wiring follows it, port by port, unless pairHops asks for the pair.
func TestFuseHopsCondition(t *testing.T) {
	for _, c := range []struct {
		name string
		tp   *topo.Topology
		want bool
	}{
		{"DefaultLeafSpine", topo.DefaultLeafSpine().Build(), true},
		{"SmallLeafSpine", topo.SmallLeafSpine().Build(), true},
		{"OversubscribedLeafSpine", topo.OversubscribedLeafSpine().Build(), true},
		{"DefaultFatTree", topo.DefaultFatTree().Build(), true},
		{"HyperscaleFatTree", topo.HyperscaleFatTree().Build(), true},
		{"TestbedLeafSpine", topo.TestbedLeafSpine().Build(), false},
	} {
		if got := fuseHops(c.tp); got != c.want {
			t.Errorf("fuseHops(%s) = %v, want %v", c.name, got, c.want)
		}
	}

	for _, c := range []struct {
		tp    *topo.Topology
		pair  bool
		inner hopKind // what every hop into a switch on one shard must be
	}{
		{topo.SmallFatTree().Build(), false, hopFused},
		{topo.SmallFatTree().Build(), true, hopPair},
		{topo.TestbedLeafSpine().Build(), false, hopPair},
	} {
		pairHops = c.pair
		f, _, closeGroup := shardedFabric(t, c.tp, 2, Config{Spray: true})
		pairHops = false
		var specs []topo.Port // the switch ports' links, in port-slab order
		for _, sw := range c.tp.Switches {
			specs = append(specs, sw.Ports...)
		}
		for i := range f.ports {
			o := &f.ports[i]
			want := c.inner
			if i < len(specs) {
				switch {
				case specs[i].ToHost:
					want = hopHost
				case specs[i].Boundary:
					want = hopBoundary
				}
			}
			if o.hop != want {
				t.Errorf("%s pairHops=%v: %s is hop kind %d, want %d", c.tp.Name, c.pair, portWiring(o), o.hop, want)
				break
			}
		}
		closeGroup()
	}
}

// randomTraffic schedules n packets between random hosts over the first
// span of the run, a third of them into four hot destinations within an
// eighth of it so that queues build, mark and pause: full MTUs, headers and odd sizes at every
// priority, each collecting INT so that it carries the time it left each
// port and the port's byte count then — its place in that port's
// departure order. Some start at the same picosecond. It also takes
// random switch ports down and up again.
func randomTraffic(f *Fabric, seed int64, n int, span sim.Duration, flaps int) {
	rng := rand.New(rand.NewSource(seed))
	hosts := f.Topology().NumHosts
	hot := [4]int{}
	for i := range hot {
		hot[i] = rng.Intn(hosts)
	}
	for k := 0; k < n; k++ {
		src, dst := rng.Intn(hosts), rng.Intn(hosts)
		at := sim.Time(rng.Int63n(int64(span)))
		if rng.Intn(3) == 0 {
			dst = hot[rng.Intn(len(hot))]
			at = sim.Time(span/2) + at/8
		}
		if src == dst {
			dst = (dst + 1) % hosts
		}
		if rng.Intn(4) == 0 {
			at -= at % sim.Time(100*sim.Nanosecond) // collide on round instants
		}
		flow, seq := uint64(k), k
		size, prio := packet.MTU, uint8(rng.Intn(packet.NumPriorities))
		switch r := rng.Intn(10); {
		case r < 3:
			size = 0 // a control header
		case r < 5:
			size = packet.HeaderSize + 1 + rng.Intn(packet.MTU-packet.HeaderSize-1)
		}
		host := f.Host(src)
		f.HostEngine(src).Schedule(at, func() {
			var p *packet.Packet
			if size == 0 {
				p = packet.NewControl(packet.Token, src, dst, flow)
				p.Seq = seq
			} else {
				p = packet.NewData(src, dst, flow, seq, size, prio)
			}
			p.CollectINT = true
			host.Send(p)
		})
	}
	for k := 0; k < flaps; k++ {
		sw := rng.Intn(len(f.switches))
		pt := rng.Intn(len(f.topo.Switches[sw].Ports))
		down := sim.Time(rng.Int63n(int64(span)))
		up := down.Add(sim.Duration(1+rng.Intn(5)) * sim.Microsecond)
		eng := f.SwitchEngine(sw)
		eng.Schedule(down, func() { f.SetLinkDown(sw, pt, true) })
		eng.Schedule(up, func() { f.SetLinkDown(sw, pt, false) })
	}
}

// fabricRecord is what a run leaves that the hop could have changed: every
// host's delivered stream, each packet with its marks and per-hop INT, the
// counters, every port's byte counts, the switch ports' high-water mark
// and every switch's RNG draws.
type fabricRecord struct {
	hosts    [][]string
	counters Counters
	maxQueue int64
	ports    []string
	draws    []uint64
}

func recordFabric(f *Fabric, sinks []*sink) fabricRecord {
	r := fabricRecord{hosts: make([][]string, len(sinks)), counters: f.Counters, maxQueue: f.MaxPortQueue()}
	var b strings.Builder
	for h, s := range sinks {
		for i, p := range s.received {
			b.Reset()
			fmt.Fprintf(&b, "%v flow %d seq %d size %d kind %d ecn %v trimmed %v int",
				s.at[i], p.Flow, p.Seq, p.Size, p.Kind, p.ECN, p.Trimmed)
			for _, hop := range p.INT() {
				fmt.Fprintf(&b, " %v/%d/%d", hop.Timestamp, hop.TxBytes, hop.QueueBytes)
			}
			r.hosts[h] = append(r.hosts[h], b.String())
		}
	}
	for i := range f.ports {
		o := &f.ports[i]
		r.ports = append(r.ports, fmt.Sprintf("tx %d queued %d", o.txBytes, o.queuedBytes))
	}
	for i := range f.switches {
		r.draws = append(r.draws, f.switches[i].src.Draws())
	}
	return r
}

func (r fabricRecord) diff(o fabricRecord) string {
	if r.counters != o.counters {
		return fmt.Sprintf("counters %+v vs %+v", r.counters, o.counters)
	}
	if r.maxQueue != o.maxQueue {
		return fmt.Sprintf("switch port high-water mark %d vs %d", r.maxQueue, o.maxQueue)
	}
	for h := range r.hosts {
		if len(r.hosts[h]) != len(o.hosts[h]) {
			return fmt.Sprintf("host %d received %d packets vs %d", h, len(r.hosts[h]), len(o.hosts[h]))
		}
		for i := range r.hosts[h] {
			if r.hosts[h][i] != o.hosts[h][i] {
				return fmt.Sprintf("host %d delivery %d: %s vs %s", h, i, r.hosts[h][i], o.hosts[h][i])
			}
		}
	}
	for i := range r.ports {
		if r.ports[i] != o.ports[i] {
			return fmt.Sprintf("port %d: %s vs %s", i, r.ports[i], o.ports[i])
		}
	}
	for i := range r.draws {
		if r.draws[i] != o.draws[i] {
			return fmt.Sprintf("switch %d: %d RNG draws vs %d", i, r.draws[i], o.draws[i])
		}
	}
	return ""
}

// TestFusedHopMatchesPair runs random traffic with link flaps on every
// fusable topology the tests and the benchmark use, with PFC on and off
// and spraying on and off, on one shard and on two, once with the fused
// hop and once with the pair (pairHops): every host must receive the same
// packets at the same picoseconds in the same order, each having left
// every port at the same instant and place in its departure order, and
// the ports, switches and counters must end alike. ECN marking is on
// throughout, so the order packets join a queue shows in their marks.
func TestFusedHopMatchesPair(t *testing.T) {
	for _, c := range []struct {
		tp      *topo.Topology
		packets int
		span    sim.Duration
	}{
		{topo.SmallLeafSpine().Build(), 3000, 40 * sim.Microsecond},
		{topo.DefaultLeafSpine().Build(), 6000, 20 * sim.Microsecond},
		{topo.OversubscribedLeafSpine().Build(), 6000, 20 * sim.Microsecond},
		{topo.SmallFatTree().Build(), 3000, 40 * sim.Microsecond},
		{topo.DefaultFatTree().Build(), 6000, 20 * sim.Microsecond},
		{topo.HyperscaleFatTree().Build(), 4000, 10 * sim.Microsecond},
	} {
		if !fuseHops(c.tp) {
			t.Fatalf("%s: fuseHops is false; the test compares nothing", c.tp.Name)
		}
		horizon := sim.Time(c.span + 200*sim.Microsecond)
		for _, pfc := range []bool{false, true} {
			for _, spray := range []bool{false, true} {
				cfg := Config{Spray: spray, ECNThresholdBytes: 15_000}
				if pfc {
					cfg.EnablePFC, cfg.PFCPause, cfg.PFCResume = true, 20_000, 10_000
				}
				var want fabricRecord
				for _, run := range []struct {
					shards int
					pair   bool
				}{{1, true}, {1, false}, {2, true}, {2, false}} {
					name := fmt.Sprintf("%s pfc=%v spray=%v shards=%d pair=%v", c.tp.Name, pfc, spray, run.shards, run.pair)
					underWatchdog(t, shardWatchdog, func() {
						pairHops = run.pair
						f, sinks, closeGroup := shardedFabric(t, c.tp, run.shards, cfg)
						pairHops = false
						defer closeGroup()
						randomTraffic(f, int64(c.tp.NumHosts), c.packets, c.span, 6)
						f.Run(horizon)
						if errs := f.AuditVerify(); len(errs) != 0 {
							t.Errorf("%s: packet conservation audit failed:\n%s", name, strings.Join(errs, "\n"))
						}
						got := recordFabric(f, sinks)
						if want.hosts == nil {
							want = got
							cn := f.Counters
							if cn.DeliveredData+cn.DeliveredCtrl+cn.TotalDrops() != int64(c.packets) {
								t.Errorf("%s: %d delivered and %d dropped of %d sent by the horizon",
									name, cn.DeliveredData+cn.DeliveredCtrl, cn.TotalDrops(), c.packets)
							}
							if cn.ECNMarks == 0 || (pfc && cn.PFCPauses == 0) {
								t.Errorf("%s: %d ECN marks, %d PFC pauses; the hot spots must queue", name, cn.ECNMarks, cn.PFCPauses)
							}
							return
						}
						if d := want.diff(got); d != "" {
							t.Errorf("%s differs from the serial pair: %s", name, d)
						}
					})
				}
			}
		}
	}
}

// TestForwardAtCompletionKey: a forward that lands at a switch at exactly
// the completion key of the port it is routed to is ordered against that
// key alike with the fused hop and with the pair. A packet from a host of
// the rack comes by a band-0 hop, whose seq — taken as the uplink started,
// or as the packet landed — precedes the key, taken when the port started
// serializing: it finds the port busy, queues, and the completion is
// materialised to send it. One from the other rack comes across the
// spine, in the arrival band after every band-0 key of its instant: it
// finds the port idle and transmits from the push. Either way it leaves
// one serialization after the first packet.
func TestForwardAtCompletionKey(t *testing.T) {
	ls := topo.SmallLeafSpine()
	tx := sim.TransmissionTime(packet.MTU, ls.HostRate)
	txSpine := sim.TransmissionTime(packet.MTU, ls.SpineRate)
	hop := tx + ls.PropDelay + ls.SwitchDelay // an uplink into the leaf
	const t0 = sim.Time(5 * sim.Microsecond)
	// Host 1's packet reaches leaf 0 at t0+hop and serializes on host 0's
	// downlink until t0+hop+tx: the key the second packet lands at.
	key := t0.Add(hop + tx)
	for _, tc := range []struct {
		name       string
		src        int
		sendAt     sim.Time
		wantQueued int
		fused      uint64 // events with the fused hop; the pair adds one per uplink
	}{
		// Inject, leaf forward, downlink delivery, host delivery, for each
		// packet, and the materialised completion.
		{"band 0 before the key: queues", 2, key.Add(-hop), 1, 9},
		// The second packet adds its forwards at leaf 1 and the spine; no
		// completion is materialised.
		{"arrival band after the key: transmits", 4, key.Add(-hop - 2*(txSpine+ls.PropDelay+ls.SwitchDelay)), 0, 10},
	} {
		for _, pair := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s pair=%v", tc.name, pair), func(t *testing.T) {
				pairHops = pair
				f, sinks := buildFabric(t, ls, Config{Spray: true})
				pairHops = false
				eng := f.Engine()
				port := &f.switches[0].ports[0] // leaf 0's downlink to host 0
				queued, armed := -1, false
				inject(f, 1, packet.NewData(1, 0, 1, 0, packet.MTU, packet.PrioShort), t0, nil)
				inject(f, tc.src, packet.NewData(tc.src, 0, 2, 0, packet.MTU, packet.PrioShort), tc.sendAt, nil)
				// Scheduled after either hop's forward took its seq and
				// before the downlink took the key's, so at the key it runs
				// between the band-0 forward and the completion.
				eng.Schedule(key.Add(-300*sim.Nanosecond), func() {
					eng.Schedule(key, func() { queued, armed = queuedCount(port), port.wakeArmed })
				})
				eng.RunAll()
				if queued != tc.wantQueued || armed != (tc.wantQueued > 0) {
					t.Errorf("at the key: %d queued, completion armed=%v; want %d queued", queued, armed, tc.wantQueued)
				}
				want := tc.fused
				if pair {
					want += 2 // both packets cross one uplink into a leaf
				}
				if got := eng.Events() - 2; got != want { // less the probe and its scheduler
					t.Errorf("ran %d events, want %d", got, want)
				}
				if len(sinks[0].at) != 2 {
					t.Fatalf("delivered %d packets, want 2", len(sinks[0].at))
				}
				if gap := sinks[0].at[1].Sub(sinks[0].at[0]); gap != tx {
					t.Errorf("second packet arrived %v after the first, want exactly one serialization time %v", gap, tx)
				}
				if sinks[0].received[0].Flow != 1 {
					t.Error("the packet that started first did not arrive first")
				}
			})
		}
	}
}
