package analysis

import "testing"

// The fixture module under testdata/src is named dcpim and mirrors the
// real module's package layout, so the path-keyed analyzers exercise the
// exact predicates they apply to the repository.

func TestGlobalRand(t *testing.T) {
	RunFixtures(t, "testdata/src", GlobalRand, "./globalrand")
}

func TestWallclock(t *testing.T) {
	RunFixtures(t, "testdata/src", Wallclock, "./internal/wallclock", "./internal/experiments")
}

func TestMapRange(t *testing.T) {
	RunFixtures(t, "testdata/src", MapRange, "./internal/matching")
}

func TestPacketOwn(t *testing.T) {
	RunFixtures(t, "testdata/src", PacketOwn, "./internal/protocols/demo")
}

func TestSimGoroutine(t *testing.T) {
	RunFixtures(t, "testdata/src", SimGoroutine, "./internal/core")
}

func TestAtomicField(t *testing.T) {
	RunFixtures(t, "testdata/src", AtomicField, "./internal/atomicfix/...")
}

func TestHotAlloc(t *testing.T) {
	RunFixtures(t, "testdata/src", HotAlloc, "./internal/hotfix")
}

func TestByName(t *testing.T) {
	for _, a := range Analyzers() {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the analyzer", a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Errorf("ByName(nosuch) = non-nil")
	}
}
