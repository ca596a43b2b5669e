package core

import (
	"strings"
	"testing"

	"dcpim/internal/faults"
	"dcpim/internal/netsim"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// Structured-fault hardening (§3.5 beyond i.i.d. loss): links that stay
// dark for multiple matching epochs, switch reboots that destroy whole
// buffers, and host blackouts. In every case the multi-round matching
// plus the notification/finish/token recovery timers must complete every
// flow once connectivity returns, and the conservation auditor must see
// no leaked or double-freed packets on the new fault paths.

// usAt is the instant x µs into the run.
func usAt(x int64) sim.Time { return sim.Time(x) * sim.Time(sim.Microsecond) }

// faultScenario runs an 8-host all-to-all workload under a fault
// schedule and asserts full completion and a clean audit.
func faultScenario(t *testing.T, seed int64, drain sim.Duration, events ...faults.Event) {
	t.Helper()
	eng := sim.NewEngine(seed)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, netsim.Config{Spray: true})
	fab.EnableAudit()
	col := stats.NewCollector()
	Attach(fab, DefaultConfig(), col)
	fab.Start()
	sched := &faults.Schedule{Events: events}
	if err := sched.Validate(tp); err != nil {
		t.Fatal(err)
	}
	faults.Install(fab, sched)
	tr := workload.AllToAllConfig{
		Hosts: 8, HostRate: tp.HostRate, Load: 0.3,
		Dist: workload.IMC10(), Horizon: 300 * sim.Microsecond, Seed: seed,
	}.Generate()
	fab.Inject(tr)
	eng.Run(sim.Time(drain))
	if col.Completed() != int64(len(tr.Flows)) {
		t.Errorf("completed %d/%d flows", col.Completed(), len(tr.Flows))
	}
	if col.DeliveredBytes() != tr.OfferedBytes {
		t.Errorf("delivered %d of %d bytes", col.DeliveredBytes(), tr.OfferedBytes)
	}
	if errs := fab.AuditVerify(); len(errs) != 0 {
		t.Errorf("conservation audit:\n%s", strings.Join(errs, "\n"))
	}
}

// A ToR downlink dark for ~100 µs — several matching epochs, not one
// token window. Every flow to the disconnected host must eventually
// finish: tokens issued into the dark interval revert at epoch starts
// and are re-issued after restore.
func TestDarkDownlinkMultiEpoch(t *testing.T) {
	faultScenario(t, 11, 30*sim.Millisecond,
		faults.Event{Kind: faults.LinkDown, Switch: 0, Port: 0, At: usAt(30), Dur: 100 * sim.Microsecond})
}

// A core (spine→leaf) link flapping twice. Spraying keeps using the dead
// spine from the other direction, so data and control on that path park
// until restore.
func TestCoreLinkFlaps(t *testing.T) {
	faultScenario(t, 12, 30*sim.Millisecond,
		faults.Event{Kind: faults.LinkDown, Switch: 2, Port: 0, At: usAt(20), Dur: 60 * sim.Microsecond},
		faults.Event{Kind: faults.LinkDown, Switch: 2, Port: 1, At: usAt(150), Dur: 60 * sim.Microsecond})
}

// A cold ToR reboot destroys every parked packet of rack 0 — data,
// tokens, grants, finish handshakes — and blackholes arrivals for 50 µs.
func TestToRRebootColdRecovery(t *testing.T) {
	faultScenario(t, 13, 40*sim.Millisecond,
		faults.Event{Kind: faults.SwitchReboot, Switch: 0, At: usAt(40), Dur: 50 * sim.Microsecond, Drain: faults.DrainDrop})
}

// A persistently degraded core link (5% loss for a long window) must
// behave no worse than the i.i.d. random-loss case.
func TestDegradedCoreLinkRecovery(t *testing.T) {
	faultScenario(t, 14, 30*sim.Millisecond,
		faults.Event{Kind: faults.LinkDegrade, Switch: 3, Port: 1, At: usAt(10), Rate: 0.05, Dur: 300 * sim.Microsecond})
}

// A host pausing mid-transfer (VM migration blackout): its own sends park
// in the NIC; inbound tokens keep arriving and expire harmlessly.
func TestHostPauseRecovery(t *testing.T) {
	faultScenario(t, 15, 30*sim.Millisecond,
		faults.Event{Kind: faults.HostPause, Host: 3, At: usAt(25), Dur: 80 * sim.Microsecond})
}

// A total-loss burst across both directions of a downlink — unlike
// linkdown, packets are destroyed rather than parked, exercising token
// expiry and retransmission instead of plain buffering.
func TestLossBurstRecovery(t *testing.T) {
	faultScenario(t, 16, 30*sim.Millisecond,
		faults.Event{Kind: faults.LossBurst, Switch: 1, Port: 0, At: usAt(30), Dur: 40 * sim.Microsecond, Rate: 1})
}

// Compound worst case: a generated intensity-3 schedule (flaps, bursts,
// degrades, a reboot, host pauses) over a longer horizon.
func TestGeneratedFaultStorm(t *testing.T) {
	eng := sim.NewEngine(17)
	tp := topo.SmallLeafSpine().Build()
	fab := netsim.New(eng, tp, netsim.Config{Spray: true})
	fab.EnableAudit()
	col := stats.NewCollector()
	Attach(fab, DefaultConfig(), col)
	fab.Start()
	horizon := 400 * sim.Microsecond
	sched := faults.Generate(faults.Intensity(3, 99, horizon), tp)
	if err := sched.Validate(tp); err != nil {
		t.Fatal(err)
	}
	faults.Install(fab, sched)
	tr := workload.AllToAllConfig{
		Hosts: 8, HostRate: tp.HostRate, Load: 0.3,
		Dist: workload.IMC10(), Horizon: horizon, Seed: 17,
	}.Generate()
	fab.Inject(tr)
	eng.Run(sim.Time(60 * sim.Millisecond))
	if col.Completed() != int64(len(tr.Flows)) {
		t.Errorf("completed %d/%d flows under fault storm (fault drops %d)",
			col.Completed(), len(tr.Flows), fab.Counters.FaultDrops)
	}
	if errs := fab.AuditVerify(); len(errs) != 0 {
		t.Errorf("conservation audit:\n%s", strings.Join(errs, "\n"))
	}
}
