package experiments

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcpim/internal/sim"
	"dcpim/internal/workload"
)

// quick returns options that shrink every experiment to seconds of wall
// time: 8–16 host topologies and 5–10% horizons.
func quick() Options { return Options{Seed: 1, Scale: 0.08, Hosts: 8} }

// quickCase is one input of TestAllExperimentsRunQuick: an experiment at
// the options its quick run uses, compared against testdata/quick/<name>.txt.
type quickCase struct {
	name string
	e    Experiment
	o    Options
}

// quickCases lists every experiment at its quick options, plus fig7 at
// a scale where no protocol completes a long flow.
func quickCases() []quickCase {
	var cases []quickCase
	for _, e := range All() {
		o := quick()
		switch e.ID {
		case "fig4a":
			o.Hosts = 0 // needs 3 racks; use the full topology briefly
			o.Scale = 0.3
		case "fig7":
			o.Scale = 0.05
		}
		cases = append(cases, quickCase{e.ID, e, o})
	}
	fig7, _ := ByID("fig7")
	o := quick()
	o.Scale = 0.02
	return append(cases, quickCase{"fig7-scale0.02", fig7, o})
}

// TestAllExperimentsRunQuick runs every experiment at quick scale and
// compares its printed report with the golden file
// testdata/quick/<name>.txt, so a change to any figure's numbers or
// layout shows up as a text diff. scale is exempt from the comparison:
// its columns are wall-clock readings. If a change to the output is
// deliberate, regenerate the golden files with
//
//	DCPIM_REGEN=1 go test ./internal/experiments -run TestAllExperimentsRunQuick
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke runs are not short")
	}
	for _, c := range quickCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			watchdog(t, 2*time.Minute) // scale runs sharded fabrics
			var buf bytes.Buffer
			if err := c.e.Run(c.o, &buf); err != nil {
				t.Fatalf("%s: %v\noutput:\n%s", c.name, err, buf.String())
			}
			out := buf.String()
			if len(out) < 100 {
				t.Fatalf("%s: suspiciously short output:\n%s", c.name, out)
			}
			if strings.Contains(out, "NaN") {
				t.Fatalf("%s: NaN in output:\n%s", c.name, out)
			}
			if c.e.ID == "scale" {
				return
			}
			path := filepath.Join("testdata", "quick", c.name+".txt")
			if os.Getenv("DCPIM_REGEN") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden output missing (see regeneration note above): %v", err)
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("%s: output differs from %s:\n%s\nwant:\n%s", c.name, path, out, want)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig3a"); !ok {
		t.Fatal("fig3a not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus id found")
	}
	if len(All()) != 16 {
		t.Fatalf("experiments = %d, want 16", len(All()))
	}
}

func TestRunSpecBasic(t *testing.T) {
	tp := leafSpineFor(8)
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.4,
		Dist: workload.IMC10(), Horizon: 200 * sim.Microsecond, Seed: 3,
	}.Generate()
	for _, proto := range []string{DCPIM, HomaAeolus, Homa, NDP, HPCC, PHost} {
		res := Run(RunSpec{
			Protocol: proto, Topo: tp, Trace: tr,
			Horizon: 500 * sim.Microsecond, Seed: 4,
		})
		if res.Completion() < 0.9 {
			t.Errorf("%s: completion %.2f at load 0.4", proto, res.Completion())
		}
		if res.Utilization() <= 0 || res.Utilization() > 1.01 {
			t.Errorf("%s: utilization %.2f out of range", proto, res.Utilization())
		}
	}
}

func TestRunSpecTCPVariants(t *testing.T) {
	tp := leafSpineConfigFor(8)
	tb := tp
	tb.HostRate, tb.SpineRate = 10e9, 10e9
	topo := tb.Build()
	tr := workload.AllToAllConfig{
		Hosts: topo.NumHosts, HostRate: topo.HostRate, Load: 0.3,
		Dist: workload.IMC10(), Horizon: 2 * sim.Millisecond, Seed: 5,
	}.Generate()
	for _, proto := range []string{DCTCP, Cubic} {
		res := Run(RunSpec{
			Protocol: proto, Topo: topo, Trace: tr,
			Horizon: 6 * sim.Millisecond, Seed: 6,
		})
		if res.Completion() < 0.85 {
			t.Errorf("%s: completion %.2f", proto, res.Completion())
		}
	}
}

// TestUnknownProtocolPanics: an unknown name panics, and the message
// lists every protocol a RunSpec may name.
func TestUnknownProtocolPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("unknown protocol accepted")
		}
		msg := fmt.Sprint(r)
		for _, name := range []string{DCPIM, Homa, HomaAeolus, PHost, NDP, HPCC, DCTCP, Cubic, Fastpass} {
			if !strings.Contains(msg, name) {
				t.Errorf("panic %q does not name protocol %q", msg, name)
			}
		}
	}()
	tp := leafSpineFor(8)
	Run(RunSpec{Protocol: "bogus", Topo: tp,
		Trace: &workload.Trace{}, Horizon: sim.Microsecond})
}

func TestSteadyUtilizationWindow(t *testing.T) {
	tp := leafSpineFor(8)
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.5,
		Dist: workload.IMC10(), Horizon: 500 * sim.Microsecond, Seed: 7,
	}.Generate()
	res := Run(RunSpec{Protocol: DCPIM, Topo: tp, Trace: tr,
		Horizon: 750 * sim.Microsecond, Seed: 8})
	u := steadyUtilization(res, 250*sim.Microsecond, 500*sim.Microsecond)
	if u < 0.25 || u > 0.75 {
		t.Fatalf("steady utilization %.2f, want near the (noisy 8-host) offered 0.5", u)
	}
	// A window the run does not cover has no value: fig4c's 100–300 µs
	// column on a shorter run prints "-", not a measured 0.
	for _, w := range [][2]sim.Duration{
		{700 * sim.Microsecond, 900 * sim.Microsecond}, // straddles the end
		{800 * sim.Microsecond, sim.Millisecond},       // wholly past it
	} {
		if u := steadyUtilization(res, w[0], w[1]); !math.IsNaN(u) {
			t.Errorf("window [%v, %v) of a %v run: utilization %.2f, want none", w[0], w[1], res.End, u)
		}
	}
	// At a longer horizon the whole-run ratio stabilizes; dcPIM sustains.
	tr2 := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.5,
		Dist: workload.IMC10(), Horizon: 2 * sim.Millisecond, Seed: 7,
	}.Generate()
	res2 := Run(RunSpec{Protocol: DCPIM, Topo: tp, Trace: tr2,
		Horizon: 3 * sim.Millisecond, Seed: 8})
	if res2.Utilization() < 0.90 || res2.Completion() < 0.90 {
		t.Fatalf("dcPIM does not sustain load 0.5: util=%.2f completion=%.2f",
			res2.Utilization(), res2.Completion())
	}
}

func TestTopologyScaling(t *testing.T) {
	if tp := leafSpineFor(0); tp.NumHosts != 144 {
		t.Fatalf("default hosts = %d", tp.NumHosts)
	}
	if tp := leafSpineFor(8); tp.NumHosts != 8 {
		t.Fatalf("small hosts = %d", tp.NumHosts)
	}
	if tp := leafSpineFor(32); tp.NumHosts != 32 {
		t.Fatalf("32-host variant = %d", tp.NumHosts)
	}
	if tp := leafSpineFor(64); tp.NumHosts != 64 {
		t.Fatalf("custom hosts = %d", tp.NumHosts)
	}
	if tp := oversubFor(0); tp.Switches[0].Ports[16].Rate != 200e9 {
		t.Fatal("oversub uplink rate")
	}
	if tp := fatTreeFor(16); tp.NumHosts != 16 {
		t.Fatalf("small fat-tree = %d", tp.NumHosts)
	}
	if tp := fatTreeFor(128); tp.NumHosts != 128 {
		t.Fatalf("k=8 fat-tree = %d", tp.NumHosts)
	}
	if tp := fatTreeFor(432); tp.NumHosts != 432 {
		t.Fatalf("k=12 fat-tree = %d", tp.NumHosts)
	}
	if tp := fatTreeFor(0); tp.NumHosts != 1024 {
		t.Fatalf("full fat-tree = %d", tp.NumHosts)
	}
}

func TestOptionsScaled(t *testing.T) {
	o := Options{Scale: 0.5}
	if got := o.scaled(2 * sim.Millisecond); got != sim.Millisecond {
		t.Fatalf("scaled = %v", got)
	}
	o.Scale = 0
	if got := o.scaled(sim.Millisecond); got != sim.Millisecond {
		t.Fatalf("zero scale should keep duration, got %v", got)
	}
}

func TestCappedUtilizationBounds(t *testing.T) {
	tp := leafSpineFor(8)
	tr := workload.AllToAllConfig{
		Hosts: tp.NumHosts, HostRate: tp.HostRate, Load: 0.3,
		Dist: workload.IMC10(), Horizon: 300 * sim.Microsecond, Seed: 5,
	}.Generate()
	res := Run(RunSpec{Protocol: DCPIM, Topo: tp, Trace: tr,
		Horizon: 600 * sim.Microsecond, Seed: 6})
	u := res.CappedUtilization()
	if u <= 0 || u > 1.01 {
		t.Fatalf("capped utilization %v out of range", u)
	}
	// Capped denominator can only shrink relative to raw offered bytes.
	if res.CappedUtilization() < res.Utilization() {
		t.Fatal("capped utilization below raw (denominator grew?)")
	}
}
