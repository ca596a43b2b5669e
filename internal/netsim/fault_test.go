package netsim

import (
	"testing"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
)

// TestDropSiteCounters forces every drop path in the fabric and checks
// that each increments exactly one counter and that the conservation
// equation holds: sent = delivered + Σ(disjoint drop counters), with
// nothing left queued once faults are lifted. (The auditor installed by
// buildFabric re-checks the same equation from packet identity.)
func TestDropSiteCounters(t *testing.T) {
	const mtu = packet.MTU
	incast := func(n int) func(f *Fabric) int64 {
		return func(f *Fabric) int64 {
			for src := 1; src < 8; src++ {
				for i := 0; i < n; i++ {
					f.Host(src).Send(packet.NewData(src, 0, uint64(src), i, mtu, packet.PrioShort))
				}
			}
			return int64(7 * n)
		}
	}
	cases := []struct {
		name string
		cfg  Config
		run  func(f *Fabric) int64 // inject traffic; returns packets sent
		// restore lifts fault state so queues can drain before checking.
		restore func(f *Fabric)
		want    func(t *testing.T, c Counters)
	}{
		{
			name: "host-overflow",
			cfg:  Config{Spray: true, HostQueueBytes: 2 * mtu},
			run: func(f *Fabric) int64 {
				for i := 0; i < 50; i++ {
					f.Host(0).Send(packet.NewData(0, 1, 1, i, mtu, packet.PrioShort))
				}
				return 50
			},
			want: func(t *testing.T, c Counters) {
				if c.HostDrops == 0 {
					t.Error("no HostDrops")
				}
				if c.DataDrops+c.CtrlDrops+c.AeolusDrops+c.FaultDrops != 0 {
					t.Errorf("NIC overflow leaked into other counters: %+v", c)
				}
			},
		},
		{
			name: "droptail-data",
			cfg:  Config{Spray: true, PortBufferBytes: 5 * mtu},
			run:  incast(20),
			want: func(t *testing.T, c Counters) {
				if c.DataDrops == 0 {
					t.Error("no DataDrops")
				}
				if c.CtrlDrops+c.AeolusDrops+c.HostDrops+c.FaultDrops != 0 {
					t.Errorf("drop-tail leaked into other counters: %+v", c)
				}
			},
		},
		{
			name: "droptail-ctrl",
			cfg:  Config{Spray: true, PortBufferBytes: 3 * packet.HeaderSize},
			run: func(f *Fabric) int64 {
				for src := 1; src < 8; src++ {
					for i := 0; i < 20; i++ {
						f.Host(src).Send(packet.NewControl(packet.Token, src, 0, uint64(src)))
					}
				}
				return 140
			},
			want: func(t *testing.T, c Counters) {
				if c.CtrlDrops == 0 {
					t.Error("no CtrlDrops")
				}
				if c.DataDrops+c.AeolusDrops+c.HostDrops+c.FaultDrops != 0 {
					t.Errorf("control drop-tail leaked into other counters: %+v", c)
				}
			},
		},
		{
			name: "aeolus-selective",
			cfg:  Config{Spray: true, AeolusThresholdBytes: 3 * mtu},
			run: func(f *Fabric) int64 {
				for src := 1; src < 8; src++ {
					for i := 0; i < 10; i++ {
						p := packet.NewData(src, 0, uint64(src), i, mtu, packet.PrioShort)
						p.Unsched = true
						f.Host(src).Send(p)
					}
				}
				return 70
			},
			want: func(t *testing.T, c Counters) {
				if c.AeolusDrops == 0 {
					t.Error("no AeolusDrops")
				}
				// Regression: the Aeolus site used to double-count into
				// DataDrops, breaking the conservation equation.
				if c.DataDrops != 0 {
					t.Errorf("Aeolus drop double-counted as DataDrops: %+v", c)
				}
			},
		},
		{
			name: "degraded-link",
			cfg:  Config{Spray: true},
			run: func(f *Fabric) int64 {
				f.SetLinkLossRate(0, 0, 0.5) // leaf 0 → host 0 downlink
				return incast(10)(f)
			},
			restore: func(f *Fabric) { f.SetLinkLossRate(0, 0, 0) },
			want: func(t *testing.T, c Counters) {
				if c.FaultDrops == 0 {
					t.Error("no FaultDrops on degraded link")
				}
				if c.DataDrops+c.CtrlDrops+c.AeolusDrops+c.HostDrops != 0 {
					t.Errorf("degrade leaked into other counters: %+v", c)
				}
			},
		},
		{
			name: "reboot-drain",
			cfg:  Config{Spray: true},
			run: func(f *Fabric) int64 {
				// Park an incast in the dark downlink's queue, then cold
				// reboot the ToR: the whole queue must drain as FaultDrops.
				f.SetLinkDown(0, 0, true)
				n := incast(5)(f)
				f.Engine().RunAll()
				f.RebootSwitch(0, true)
				return n
			},
			restore: func(f *Fabric) { f.RestoreSwitch(0) },
			want: func(t *testing.T, c Counters) {
				if c.FaultDrops != 35 {
					t.Errorf("FaultDrops = %d, want all 35 parked packets", c.FaultDrops)
				}
				if c.DeliveredData != 0 {
					t.Errorf("delivered %d through a dark link", c.DeliveredData)
				}
			},
		},
		{
			name: "dark-switch",
			cfg:  Config{Spray: true},
			run: func(f *Fabric) int64 {
				// Both spines rebooting: every cross-rack packet arrives at
				// a dark forwarding plane and is discarded.
				f.RebootSwitch(2, true)
				f.RebootSwitch(3, true)
				for i := 0; i < 10; i++ {
					f.Host(0).Send(packet.NewData(0, 4, 1, i, mtu, packet.PrioShort))
				}
				return 10
			},
			restore: func(f *Fabric) { f.RestoreSwitch(2); f.RestoreSwitch(3) },
			want: func(t *testing.T, c Counters) {
				if c.FaultDrops != 10 {
					t.Errorf("FaultDrops = %d, want 10 (all cross-rack)", c.FaultDrops)
				}
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f, sinks := buildFabric(t, topo.SmallLeafSpine(), tc.cfg)
			sent := tc.run(f)
			f.Engine().RunAll()
			if tc.restore != nil {
				tc.restore(f)
				f.Engine().RunAll()
			}
			c := f.Counters
			tc.want(t, c)
			var delivered int64
			for _, s := range sinks {
				delivered += int64(len(s.received))
			}
			if delivered != c.DeliveredData+c.DeliveredCtrl {
				t.Errorf("delivered %d but counters say %d", delivered, c.DeliveredData+c.DeliveredCtrl)
			}
			if got := delivered + c.TotalDrops(); got != sent {
				t.Errorf("conservation: delivered %d + drops %d = %d, want %d sent",
					delivered, c.TotalDrops(), got, sent)
			}
		})
	}
}

// TestLinkDownBuffersThenDelivers checks LinkDown semantics: a dark link
// buffers (it does not drop), and everything flows after LinkUp.
func TestLinkDownBuffersThenDelivers(t *testing.T) {
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
	eng := f.Engine()
	f.SetLinkDown(0, 0, true)
	for i := 0; i < 10; i++ {
		f.Host(1).Send(packet.NewData(1, 0, 7, i, packet.MTU, packet.PrioShort))
	}
	eng.RunAll()
	if n := len(sinks[0].received); n != 0 {
		t.Fatalf("%d packets crossed a dark link", n)
	}
	if f.Counters.TotalDrops() != 0 {
		t.Fatalf("dark link dropped: %+v", f.Counters)
	}
	restored := eng.Now()
	f.SetLinkDown(0, 0, false)
	eng.RunAll()
	if n := len(sinks[0].received); n != 10 {
		t.Fatalf("delivered %d after restore, want 10", n)
	}
	for _, at := range sinks[0].at {
		if at <= restored {
			t.Fatal("delivery timestamped before the link came back")
		}
	}
}

// TestLossBurstWindow checks that a rate-1.0 burst kills exactly the
// packets whose switch enqueue falls inside the window.
func TestLossBurstWindow(t *testing.T) {
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
	eng := f.Engine()
	us := func(x int64) sim.Time { return sim.Time(x) * sim.Time(sim.Microsecond) }
	f.SetLossBurst(0, 0, us(20), 1.0)
	send := func() {
		f.Host(1).Send(packet.NewData(1, 0, 7, 0, packet.MTU, packet.PrioShort))
	}
	eng.Schedule(us(5), send)  // enqueues inside the window → dropped
	eng.Schedule(us(30), send) // after the window → delivered
	eng.RunAll()
	if f.Counters.FaultDrops != 1 {
		t.Fatalf("FaultDrops = %d, want exactly the in-window packet", f.Counters.FaultDrops)
	}
	if len(sinks[0].received) != 1 {
		t.Fatalf("delivered %d, want the post-window packet", len(sinks[0].received))
	}
}

// TestHostPauseHaltsEgress checks that a paused host buffers its own
// sends in the NIC and releases them on resume; inbound still works.
func TestHostPauseHaltsEgress(t *testing.T) {
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
	eng := f.Engine()
	f.SetHostDown(0, true)
	f.Host(0).Send(packet.NewData(0, 1, 7, 0, packet.MTU, packet.PrioShort))
	f.Host(2).Send(packet.NewData(2, 0, 8, 0, packet.MTU, packet.PrioShort))
	eng.RunAll()
	if len(sinks[1].received) != 0 {
		t.Fatal("paused host transmitted")
	}
	if len(sinks[0].received) != 1 {
		t.Fatal("paused host should still receive")
	}
	f.SetHostDown(0, false)
	eng.RunAll()
	if len(sinks[1].received) != 1 {
		t.Fatal("parked packet not released on resume")
	}
}

// TestRebootKeepPreservesBuffers checks the warm-reboot drain policy:
// parked packets survive and deliver after restore.
func TestRebootKeepPreservesBuffers(t *testing.T) {
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), Config{Spray: true})
	eng := f.Engine()
	f.SetLinkDown(0, 0, true)
	for i := 0; i < 10; i++ {
		f.Host(1).Send(packet.NewData(1, 0, 7, i, packet.MTU, packet.PrioShort))
	}
	eng.RunAll()
	f.RebootSwitch(0, false) // warm: keep buffers
	eng.RunAll()
	f.RestoreSwitch(0)
	eng.RunAll()
	if n := len(sinks[0].received); n != 10 {
		t.Fatalf("delivered %d after warm reboot, want 10", n)
	}
	if f.Counters.FaultDrops != 0 {
		t.Fatalf("warm reboot dropped: %+v", f.Counters)
	}
}

// TestRebootDrainReleasesPFC checks that a cold reboot's drain keeps the
// PFC ingress accounting consistent: upstream neighbours paused on the
// rebooted switch resume instead of wedging forever.
func TestRebootDrainReleasesPFC(t *testing.T) {
	cfg := Config{
		Spray: true, EnablePFC: true,
		PFCPause: 4 * packet.MTU, PFCResume: 2 * packet.MTU,
		PortBufferBytes: 1 << 20,
	}
	f, sinks := buildFabric(t, topo.SmallLeafSpine(), cfg)
	eng := f.Engine()
	// Park a cross-rack incast in leaf 1's dark downlink to host 4 so the
	// spine→leaf1 ingresses accumulate and PFC pauses the spines.
	f.SetLinkDown(1, 0, true)
	for src := 0; src < 4; src++ {
		for i := 0; i < 20; i++ {
			f.Host(src).Send(packet.NewData(src, 4, uint64(src), i, packet.MTU, packet.PrioShort))
		}
	}
	eng.RunAll()
	if f.Counters.PFCPauses == 0 {
		t.Fatal("setup: PFC never paused")
	}
	f.RebootSwitch(1, true)
	eng.RunAll()
	f.RestoreSwitch(1)
	eng.RunAll()
	// The fabric must still be able to deliver cross-rack traffic.
	before := len(sinks[4].received)
	f.Host(0).Send(packet.NewData(0, 4, 99, 0, packet.MTU, packet.PrioShort))
	eng.RunAll()
	if len(sinks[4].received) != before+1 {
		t.Fatal("fabric wedged after reboot drain under PFC")
	}
}
