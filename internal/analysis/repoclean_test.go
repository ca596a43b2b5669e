package analysis

import (
	"path/filepath"
	"testing"
)

// TestRepoClean is the self-check: the merged tree must carry zero
// unsuppressed diagnostics, so a new allocation under a //lint:hotpath
// root fails `go test ./internal/analysis` as well as the CI lint job. Run `go run ./cmd/dcpimlint ./...` for the same check with
// file:line output.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunDir(root, "./...")
	if err != nil {
		t.Fatalf("running dcpimlint over %s: %v", root, err)
	}
	for _, d := range diags {
		t.Errorf("%v", d)
	}
	if len(diags) > 0 {
		t.Errorf("dcpimlint found %d unsuppressed findings; fix them or add //lint:ignore hotalloc <reason>", len(diags))
	}
}
