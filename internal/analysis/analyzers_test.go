package analysis

import "testing"

// The fixture module under testdata/src is named dcpim and mirrors the
// real module's package layout, so hotalloc follows the same in-module
// call edges it follows in the repository.

func TestHotAlloc(t *testing.T) {
	RunFixtures(t, "testdata/src", HotAlloc, "./internal/hotfix")
}
