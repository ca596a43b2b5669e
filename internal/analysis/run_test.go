package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// writeModule materializes a module in a temp dir; files maps
// module-relative paths to contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestPatternMatchingNothingFails pins that a pattern naming a directory
// with no Go files is an error, not a clean run over zero packages. A
// wildcard over such a directory draws only a warning from `go list`,
// which would otherwise let the gate pass having analyzed nothing.
// Spellings `go list` canonicalizes must still count as matched.
func TestPatternMatchingNothingFails(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":          "module emptymod\n\ngo 1.21\n",
		"a/a.go":          "package a\n",
		"empty/README.md": "no Go files here\n",
	})
	for _, pattern := range []string{"./a", "./a/", "./a/../a", "./...", "emptymod/a"} {
		if _, err := RunDir(dir, pattern); err != nil {
			t.Errorf("RunDir(%q): %v", pattern, err)
		}
	}
	for _, pattern := range []string{"./empty", "./empty/..."} {
		if _, err := RunDir(dir, "./a", pattern); err == nil {
			t.Errorf("RunDir(%q) returned no error for a pattern matching no package", pattern)
		}
	}
}
