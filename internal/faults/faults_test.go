package faults

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"dcpim/internal/netsim"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
)

// us is the instant x µs into the run.
func us(x int64) sim.Time { return sim.Time(x) * sim.Time(sim.Microsecond) }

func TestValidateBounds(t *testing.T) {
	tp := topo.SmallLeafSpine().Build() // 8 hosts, 4 switches
	good := &Schedule{Events: []Event{
		{Kind: LinkDown, Switch: 3, Port: 0, At: us(1)},
		{Kind: HostPause, Host: 7, At: us(1), Dur: sim.Microsecond},
	}}
	if err := good.Validate(tp); err != nil {
		t.Fatalf("in-range schedule rejected: %v", err)
	}
	bad := []Event{
		{Kind: LinkDown, Switch: 4, Port: 0, At: us(1)},  // switch out of range
		{Kind: LinkDown, Switch: 0, Port: 99, At: us(1)}, // port out of range
		{Kind: SwitchReboot, Switch: 9, At: us(1), Dur: sim.Microsecond},
		{Kind: HostPause, Host: 8, At: us(1), Dur: sim.Microsecond},
	}
	for _, ev := range bad {
		if err := (&Schedule{Events: []Event{ev}}).Validate(tp); err == nil {
			t.Errorf("%+v: validated against an 8-host topology", ev)
		}
	}
}

// TestParseErrors checks that Validate refuses events that are malformed
// whatever the topology they run on.
func TestParseErrors(t *testing.T) {
	tp := topo.SmallLeafSpine().Build()
	cases := []struct {
		name string
		ev   Event
	}{
		{"unknown kind", Event{Kind: Kind(len(kindNames)), At: us(1)}},
		{"negative id", Event{Kind: LinkUp, Switch: -1, At: us(1)}},
		{"negative time", Event{Kind: LinkUp, At: -1}},
		{"negative duration", Event{Kind: LinkDown, At: us(1), Dur: -sim.Microsecond}},
		{"rate above one", Event{Kind: LinkDegrade, At: us(1), Rate: 1.5}},
		{"negative rate", Event{Kind: LinkDegrade, At: us(1), Rate: -0.5}},
		{"rate NaN", Event{Kind: LinkDegrade, At: us(1), Rate: math.NaN()}},
		{"zero rate", Event{Kind: LinkDegrade, At: us(1)}},
		{"zero burst dur", Event{Kind: LossBurst, At: us(1), Rate: 0.5}},
		{"zero reboot dur", Event{Kind: SwitchReboot, At: us(1)}},
		{"zero pause dur", Event{Kind: HostPause, At: us(1)}},
	}
	for _, c := range cases {
		if err := (&Schedule{Events: []Event{c.ev}}).Validate(tp); err == nil {
			t.Errorf("%s: %+v validated without error", c.name, c.ev)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	tp := topo.SmallLeafSpine().Build()
	cfg := Intensity(3, 42, 500*sim.Microsecond)
	a, b := Generate(cfg, tp), Generate(cfg, tp)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a.Events) == 0 {
		t.Fatal("intensity 3 generated no events")
	}
	if err := a.Validate(tp); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Fatal("generated schedule not sorted by time")
		}
	}
	cfg.Seed = 43
	if c := Generate(cfg, tp); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if n := len(Generate(Intensity(0, 1, sim.Millisecond), tp).Events); n != 0 {
		t.Fatalf("intensity 0 generated %d events, want 0", n)
	}
}

// TestFormatAllKindsParse checks that every kind formats to its own name,
// that an unknown kind formats as its number, and that a generated
// intensity-3 schedule uses only known kinds, a reboot among them.
func TestFormatAllKindsParse(t *testing.T) {
	seen := map[string]Kind{}
	for k := LinkDown; k <= HostPause; k++ {
		name := k.String()
		if prev, dup := seen[name]; dup || name == "" {
			t.Fatalf("kind %d formats as %q (kind %d too)", k, name, prev)
		}
		seen[name] = k
	}
	if got := Kind(200).String(); got != "kind(200)" {
		t.Fatalf("unknown kind formats as %q, want kind(200)", got)
	}
	tp := topo.SmallLeafSpine().Build()
	s := Generate(Intensity(3, 7, sim.Millisecond), tp)
	for _, ev := range s.Events {
		if k, ok := seen[ev.Kind.String()]; !ok || k != ev.Kind {
			t.Fatalf("generated event %+v has kind %v", ev, ev.Kind)
		}
	}
	if !slices.ContainsFunc(s.Events, func(ev Event) bool { return ev.Kind == SwitchReboot }) {
		t.Fatal("intensity 3 has no reboot")
	}
}

// TestInstallTiming installs a schedule on a real fabric and probes the
// fault state before, during, and after each window.
func TestInstallTiming(t *testing.T) {
	tp := topo.SmallLeafSpine().Build()
	eng := sim.NewEngine(1)
	fab := netsim.New(eng, tp, netsim.Config{})
	s := &Schedule{Events: []Event{
		{Kind: LinkDown, Switch: 0, Port: 0, At: us(10), Dur: 20 * sim.Microsecond},
		{Kind: LinkDown, Switch: 2, Port: 1, At: us(15)},
		{Kind: LinkUp, Switch: 2, Port: 1, At: us(40)},
		{Kind: SwitchReboot, Switch: 3, At: us(50), Dur: 10 * sim.Microsecond},
		{Kind: HostPause, Host: 5, At: us(70), Dur: 5 * sim.Microsecond},
	}}
	if err := s.Validate(tp); err != nil {
		t.Fatal(err)
	}
	Install(fab, s)

	expect := func(at sim.Time, fn func() bool, desc string) {
		eng.Schedule(at, func() {
			if !fn() {
				t.Errorf("at %v: %s", at, desc)
			}
		})
	}
	// sw=0 port=0 is a ToR downlink: both the switch port and the peer
	// host's NIC flap together.
	expect(us(9), func() bool { return !fab.LinkDown(0, 0) && !fab.HostDown(0) }, "link up before flap")
	expect(us(11), func() bool { return fab.LinkDown(0, 0) && fab.HostDown(0) }, "link down during flap")
	expect(us(31), func() bool { return !fab.LinkDown(0, 0) && !fab.HostDown(0) }, "link restored after flap")
	// sw=2 port=1 is a spine→leaf link: both directions down until linkup.
	expect(us(20), func() bool { return fab.LinkDown(2, 1) && fab.LinkDown(1, 4) }, "core link down both directions")
	expect(us(41), func() bool { return !fab.LinkDown(2, 1) && !fab.LinkDown(1, 4) }, "core link up both directions")
	// Reboot downs every port of sw=3.
	expect(us(55), func() bool { return fab.LinkDown(3, 0) && fab.LinkDown(3, 1) }, "rebooting switch ports down")
	expect(us(61), func() bool { return !fab.LinkDown(3, 0) }, "switch restored")
	expect(us(72), func() bool { return fab.HostDown(5) }, "host paused")
	expect(us(76), func() bool { return !fab.HostDown(5) }, "host resumed")
	eng.RunAll()
}
