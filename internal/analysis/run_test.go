package analysis

import (
	"reflect"
	"testing"
)

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
		if _, err := RunDir(dir, Analyzers(), pattern); err != nil {
			t.Errorf("RunDir(%q): %v", pattern, err)
		}
	}
	for _, pattern := range []string{"./empty", "./empty/..."} {
		if _, err := RunDir(dir, Analyzers(), "./a", pattern); err == nil {
			t.Errorf("RunDir(%q) returned no error for a pattern matching no package", pattern)
		}
	}
}

// TestRepeatedAnalyzerRunsOnce pins that listing an analyzer twice does
// not report each of its findings twice.
func TestRepeatedAnalyzerRunsOnce(t *testing.T) {
	once, err := RunDir("testdata/src", []*Analyzer{GlobalRand}, "./globalrand")
	if err != nil {
		t.Fatal(err)
	}
	twice, err := RunDir("testdata/src", []*Analyzer{GlobalRand, GlobalRand}, "./globalrand")
	if err != nil {
		t.Fatal(err)
	}
	if len(once) == 0 || !reflect.DeepEqual(once, twice) {
		t.Errorf("{GlobalRand, GlobalRand} gave %d findings, {GlobalRand} gave %d", len(twice), len(once))
	}
}
