package analysis

import (
	"path/filepath"
	"testing"
)

// The fixture module under testdata/src is named dcpim and mirrors the
// real module's package layout.

func TestHotAlloc(t *testing.T) {
	runFixtures(t, "testdata/src", "./internal/hotfix")
}

// TestHotAllocAcrossPackages pins reach across a package boundary. The
// hotdep fixture has no hot root of its own: loaded alone it has no
// findings, and loaded as hotfix's dependency it has one per allocating
// function hotfix's hot root calls (TestHotAlloc checks their text).
func TestHotAllocAcrossPackages(t *testing.T) {
	alone, err := RunDir("testdata/src", "./internal/hotdep")
	if err != nil {
		t.Fatal(err)
	}
	if len(alone) != 0 {
		t.Errorf("hotdep alone: got %d findings, want 0: %v", len(alone), alone)
	}
	diags, err := RunDir("testdata/src", "./internal/hotfix")
	if err != nil {
		t.Fatal(err)
	}
	var inDep int
	for _, d := range diags {
		if filepath.Base(filepath.Dir(d.Position.Filename)) == "hotdep" {
			inDep++
		}
	}
	if inDep != 2 {
		t.Errorf("hotfix: got %d findings in hotdep, want 2 (Scale, Stack.Push): %v", inDep, diags)
	}
}
