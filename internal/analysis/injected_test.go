package analysis

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestInjectedHotAllocViolation is TestRepoClean's negative counterpart:
// it copies the module into a temp dir, injects one representative
// violation, and asserts hotalloc reports it — i.e. `dcpimlint ./...`
// would exit 1. Together with TestRepoClean (zero findings on the real
// tree) it pins both directions of the contract: the suite stays quiet
// on clean code and a single regression is caught.

// copyRepo copies the module's go.mod and every .go file (minus testdata
// fixtures, which carry their own module) into a temp dir.
func copyRepo(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		if d.IsDir() {
			if rel != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		out := filepath.Join(dst, rel)
		if rerr := os.MkdirAll(filepath.Dir(out), 0o755); rerr != nil {
			return rerr
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// inject replaces needle with repl exactly once in dir/file, failing the
// test if the needle is missing (so tree drift breaks the test loudly
// instead of silently testing nothing).
func inject(t *testing.T, dir, file, needle, repl string) {
	t.Helper()
	path := filepath.Join(dir, filepath.FromSlash(file))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(needle)) {
		t.Fatalf("injection needle %q not found in %s — update the test to match the tree", needle, file)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte(needle), []byte(repl), 1), 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireFinding runs the full suite over pattern and asserts a finding
// from the named analyzer whose message contains substr. A non-empty
// diagnostic list is exactly the dcpimlint exit-1 condition.
func requireFinding(t *testing.T, dir, pattern, analyzer, substr string) {
	t.Helper()
	diags, err := RunDir(dir, Analyzers(), pattern)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Fatalf("no %s finding containing %q; got %d findings: %v", analyzer, substr, len(diags), diags)
}

// TestInjectedHotAllocViolation adds one append to the body of the
// per-packet OnPacket hot root: hotalloc must flag it.
func TestInjectedHotAllocViolation(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the core dependency closure")
	}
	dir := copyRepo(t)
	inject(t, dir, "internal/core/proto.go",
		"\tswitch pkt.Kind {",
		"\tscratch := append([]int(nil), int(pkt.Kind))\n\t_ = scratch\n\tswitch pkt.Kind {")
	requireFinding(t, dir, "./internal/core", "hotalloc",
		"append growth in hot-path function dcpim/internal/core.Proto.OnPacket")
}
