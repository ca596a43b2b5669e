package analysis

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testMarkFact is a minimal fact for the mechanism tests.
type testMarkFact struct {
	Tag string
}

func (*testMarkFact) AFact() {}

// factProbe exports a testMarkFact on every package-level function named
// Marked and reports a diagnostic at every call to a function carrying
// the fact. Running it over a two-package module pins the whole export →
// topo-order → import chain.
var factProbe = &Analyzer{
	Name: "factprobe",
	Run: func(pass *Pass) error {
		if fn, ok := pass.Pkg.Scope().Lookup("Marked").(*types.Func); ok {
			if !pass.ExportObjectFact(fn, &testMarkFact{Tag: "obj:" + pass.Pkg.Path()}) {
				return nil
			}
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := funcObject(pass.TypesInfo, call.Fun)
				if fn == nil {
					return true
				}
				var mf testMarkFact
				if pass.ImportObjectFact(fn, &mf) {
					pass.Reportf(call.Pos(), "call to marked function (%s)", mf.Tag)
				}
				return true
			})
		}
		return nil
	},
	Finish: func(fp *FinishPass) error {
		for _, kf := range fp.AllObjectFacts((*testMarkFact)(nil)) {
			fp.Report(Diagnostic{
				Message:  "finish sees fact " + kf.Fact.(*testMarkFact).Tag + " on " + kf.Object,
				Position: Pos{File: "finish", Line: 1, Col: 1}.Position(),
			})
		}
		return nil
	},
}

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

func factModule(t *testing.T) string {
	return writeModule(t, map[string]string{
		"go.mod": "module factmod\n\ngo 1.21\n",
		"a/a.go": "package a\n\n// Marked carries the probe's object fact.\nfunc Marked() int { return 1 }\n",
		"b/b.go": "package b\n\nimport \"factmod/a\"\n\n// Use calls across the package boundary.\nfunc Use() int { return a.Marked() }\n",
	})
}

func hasDiag(diags []Diagnostic, substr string) bool {
	for _, d := range diags {
		if strings.Contains(d.Message, substr) {
			return true
		}
	}
	return false
}

// TestFactFlowAcrossPackages pins the mechanism end to end: package a
// exports an object fact; package b — type-checked against a's export
// data, so with different object identities — imports it; the Finish
// pass enumerates it.
func TestFactFlowAcrossPackages(t *testing.T) {
	dir := factModule(t)
	diags, err := RunDir(dir, []*Analyzer{factProbe}, "./b")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"call to marked function (obj:factmod/a)",
		"finish sees fact obj:factmod/a on factmod/a#Marked",
	} {
		if !hasDiag(diags, want) {
			t.Errorf("missing diagnostic %q in %v", want, diags)
		}
	}
}
