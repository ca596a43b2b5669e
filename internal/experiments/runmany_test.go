package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"dcpim/internal/sim"
	"dcpim/internal/workload"
)

// someSpecs builds a mixed batch of small runs covering several protocols
// and loads.
func someSpecs() []RunSpec {
	o := quick()
	tp := leafSpineFor(o.Hosts)
	horizon := 150 * sim.Microsecond
	var specs []RunSpec
	for i, proto := range []string{DCPIM, HomaAeolus, NDP, HPCC, DCPIM, HomaAeolus} {
		load := 0.4 + 0.05*float64(i)
		specs = append(specs, RunSpec{
			Protocol: proto, Topo: tp, Trace: allToAll(tp, workload.IMC10(), load, horizon, o.Seed),
			Horizon: horizon + horizon/2, Seed: o.Seed + 77,
		})
	}
	return specs
}

// TestRunManyMatchesSerial pins the determinism contract: a worker pool
// must produce exactly the serial loop's results, in input order.
func TestRunManyMatchesSerial(t *testing.T) {
	serial := RunMany(someSpecs(), 1)
	parallel := RunMany(someSpecs(), 4)
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Protocol != p.Protocol {
			t.Fatalf("run %d: protocol order changed: %s vs %s", i, s.Protocol, p.Protocol)
		}
		if !reflect.DeepEqual(s.Records, p.Records) {
			t.Errorf("run %d (%s): flow records differ between serial and parallel", i, s.Protocol)
		}
		if s.Counters != p.Counters {
			t.Errorf("run %d (%s): fabric counters differ: %+v vs %+v", i, s.Protocol, s.Counters, p.Counters)
		}
		if s.Col.DeliveredBytes() != p.Col.DeliveredBytes() {
			t.Errorf("run %d (%s): delivered bytes differ: %d vs %d",
				i, s.Protocol, s.Col.DeliveredBytes(), p.Col.DeliveredBytes())
		}
	}
}

// TestRunManyFig3aDeterministic runs the fig3a load search twice serially
// and twice on four workers; all four reports must be byte-identical.
func TestRunManyFig3aDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("four fig3a smoke runs are not short")
	}
	render := func(workers int) string {
		var buf bytes.Buffer
		o := quick()
		o.Workers = workers
		if err := RunFig3a(o, &buf); err != nil {
			t.Fatalf("fig3a (workers=%d): %v", workers, err)
		}
		return buf.String()
	}
	s1, s2 := render(1), render(1)
	p1, p2 := render(4), render(4)
	if s1 != s2 {
		t.Fatal("serial fig3a output is not reproducible")
	}
	if p1 != p2 {
		t.Fatal("parallel fig3a output is not reproducible")
	}
	if s1 != p1 {
		t.Fatalf("parallel fig3a output differs from serial:\n-- serial --\n%s\n-- parallel --\n%s", s1, p1)
	}
}

// TestRunManyEmptyAndSingle covers the degenerate batch shapes.
func TestRunManyEmptyAndSingle(t *testing.T) {
	if got := RunMany(nil, 8); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	specs := someSpecs()[:1]
	res := RunMany(specs, 8)
	if len(res) != 1 || res[0].Protocol != specs[0].Protocol {
		t.Fatalf("single-spec batch mangled: %+v", res)
	}
}
