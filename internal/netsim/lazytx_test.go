package netsim

import (
	"testing"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
)

// Tests for the lazy transmitter completion (DESIGN.md §8.1): a port
// queues its completion event only when a packet is waiting for it.

// TestIdlePathEventCount pins the events-per-packet arithmetic: a packet
// crossing an idle 144-host leaf-spine traverses four links and costs six
// events (NIC enqueue, leaf forward, fused spine forward, fused leaf
// forward, downlink delivery, host delivery) — the four transmitter
// completions that used to make it ten find nothing queued and are never
// scheduled, and the uplink's delivery is the leaf's forward. The 10G
// testbed keeps the uplink's arrival as an event of its own
// (fuseHops): seven.
func TestIdlePathEventCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		topo topo.LeafSpineConfig
		one  uint64
	}{
		{"fused", topo.DefaultLeafSpine(), 6},
		{"testbed pair", topo.TestbedLeafSpine(), 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, sinks := buildFabric(t, tc.topo, Config{Spray: true})
			eng := f.Engine()
			dst := f.Topology().NumHosts / 2
			f.Host(0).Send(packet.NewData(0, dst, 1, 0, packet.MTU, packet.PrioShort))
			eng.RunAll()
			if len(sinks[dst].received) != 1 {
				t.Fatal("packet not delivered")
			}
			if got := eng.Events(); got != tc.one {
				t.Fatalf("one packet across an idle fabric cost %d events, want %d", got, tc.one)
			}

			// Two packets sent together share every port back to back: only
			// the NIC ever holds the second while the first serializes, so
			// exactly one completion is materialised.
			before := eng.Events()
			f.Host(1).Send(packet.NewData(1, dst, 2, 0, packet.MTU, packet.PrioShort))
			f.Host(1).Send(packet.NewData(1, dst, 2, 1, packet.MTU, packet.PrioShort))
			eng.RunAll()
			if got := eng.Events() - before; got != 2*tc.one+1 {
				t.Fatalf("two back-to-back packets cost %d events, want %d+%d+1", got, tc.one, tc.one)
			}
		})
	}
}

// inject hands p to host h's NIC at absolute time at from an ordinary
// event, telling the observers (the auditor) first as Host.Send would.
// after, when set, runs in the same event right after the enqueue.
func inject(f *Fabric, h int, p *packet.Packet, at sim.Time, after func()) {
	host := f.Host(h)
	host.sh.eng.Schedule(at, func() {
		p.SentAt = at
		for _, o := range f.obs {
			o.PacketInjected(h, p)
		}
		host.nic.enqueue(p, &host.rng)
		if after != nil {
			after()
		}
	})
}

// TestPushAtBusyUntilTie: a packet reaching a port at exactly the instant
// its transmission ends is ordered against the reserved completion key,
// as it was against the eager completion event. Pushed by an event that
// sorts before the key it finds the port still serializing and queues
// (and the completion is materialised to send it, later that instant);
// pushed by one that sorts after, it finds the port idle and transmits
// from the push. Either way it leaves at the same time.
func TestPushAtBusyUntilTie(t *testing.T) {
	const t0 = sim.Time(sim.Microsecond)
	tx := sim.TransmissionTime(packet.MTU, topo.SmallLeafSpine().HostRate)
	for _, tc := range []struct {
		name       string
		afterKey   bool
		wantQueued int
		wantEvents uint64
	}{
		// Eight events move the two packets (injection, leaf forward,
		// downlink delivery, host delivery, each twice), and the leaf
		// downlink materialises one completion in both cases: the second
		// packet's forward there was scheduled before the first's
		// transmission began, so it sorts before that key. The tenth is the
		// NIC's completion in the first case, the helper event in the
		// second.
		{"before the key: queues", false, 1, 10},
		{"after the key: transmits", true, 0, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
			eng := f.Engine()
			nic := f.Host(0).nic
			first := packet.NewData(0, 1, 1, 0, packet.MTU, packet.PrioShort)
			second := packet.NewData(0, 1, 1, 1, packet.MTU, packet.PrioShort)
			var queued int
			var armed bool
			look := func() { queued, armed = queuedCount(nic), nic.wakeArmed }

			inject(f, 0, first, t0, nil)
			if tc.afterKey {
				// Scheduled from an event that runs after the transmission
				// started, so its seq is allocated after the reserved one.
				eng.Schedule(t0, func() { inject(f, 0, second, t0.Add(tx), look) })
			} else {
				// Scheduled before the transmission starts: smaller seq.
				inject(f, 0, second, t0.Add(tx), look)
			}
			eng.RunAll()

			if queued != tc.wantQueued || armed != (tc.wantQueued > 0) {
				t.Errorf("after the push: %d queued, completion armed=%v; want %d queued", queued, armed, tc.wantQueued)
			}
			if got := eng.Events(); got != tc.wantEvents {
				t.Errorf("ran %d events, want %d", got, tc.wantEvents)
			}
			if len(sinks[1].at) != 2 {
				t.Fatalf("delivered %d packets, want 2", len(sinks[1].at))
			}
			if gap := sinks[1].at[1].Sub(sinks[1].at[0]); gap != tx {
				t.Errorf("second packet arrived %v after the first, want exactly one serialization time %v", gap, tx)
			}
		})
	}
}

// TestResumeMidSerializationDrains: a port that is halted and released —
// by PFC or by a link fault — while one packet is still serializing and
// others arrived in between must drain them all. The packets that queue
// behind the halt do not materialise the completion (a halted port has
// nothing to send); the release has to.
func TestResumeMidSerializationDrains(t *testing.T) {
	for _, tc := range []struct {
		name          string
		halt, release func(f *Fabric, o *outPort)
	}{
		{"pfc",
			func(_ *Fabric, o *outPort) { pfcApply(o, nil, 1) },
			func(_ *Fabric, o *outPort) { pfcApply(o, nil, 0) }},
		{"link",
			func(f *Fabric, _ *outPort) { f.SetLinkDown(0, 0, true) },
			func(f *Fabric, _ *outPort) { f.SetLinkDown(0, 0, false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
			eng := f.Engine()
			tp := f.Topology()
			port := &f.switches[0].ports[0] // leaf 0's downlink to host 0
			tx := sim.TransmissionTime(packet.MTU, tp.HostRate)
			// Host 1's packet starts serializing on the downlink at start;
			// those of hosts 2 and 3 reach it a third of the way through.
			start := sim.Time(0).Add(tp.HostDelay + tx + tp.HostLink.Delay + tp.SwitchDelay)
			f.Host(1).Send(packet.NewData(1, 0, 1, 0, packet.MTU, packet.PrioShort))
			eng.Schedule(sim.Time(0).Add(tx/3), func() {
				f.Host(2).Send(packet.NewData(2, 0, 2, 0, packet.MTU, packet.PrioShort))
				f.Host(3).Send(packet.NewData(3, 0, 3, 0, packet.MTU, packet.PrioShort))
			})
			eng.Schedule(start.Add(tx/4), func() { tc.halt(f, port) })
			eng.Schedule(start.Add(tx/2), func() {
				if n := queuedCount(port); n != 2 || port.wakeArmed {
					t.Errorf("before release: %d queued, completion armed=%v; want 2 queued behind an unarmed halt", n, port.wakeArmed)
				}
				tc.release(f, port)
				if !port.wakeArmed {
					t.Error("release with a backlog did not arm the completion of the transmission in progress")
				}
			})
			eng.RunAll()
			if n := len(sinks[0].received); n != 3 {
				t.Fatalf("delivered %d of 3 packets", n)
			}
			// The halt never outlasted the serialization, so the downlink
			// stayed back to back.
			for i := 1; i < 3; i++ {
				if gap := sinks[0].at[i].Sub(sinks[0].at[i-1]); gap != tx {
					t.Errorf("packet %d arrived %v after its predecessor, want %v", i, gap, tx)
				}
			}
		})
	}
}
