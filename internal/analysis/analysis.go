// Package analysis implements dcpimlint, the static check behind the
// simulator's zero-allocation hot paths (DESIGN.md §17). The one analyzer
// is hotalloc: a function marked //lint:hotpath, plus everything it
// statically calls inside the module, must contain no allocation sites.
// A benchmark only measures the call tree it happens to run, so a new
// allocation in a rarely taken branch passes every runtime test; hotalloc
// sees it. The determinism and ownership contracts are held by tests
// instead — golden digests at every shard count and the race legs
// (DESIGN.md §12). cmd/dcpimlint runs the suite and CI gates on a clean
// exit.
//
// The Analyzer/Pass/Diagnostic surface is an API-compatible subset of
// golang.org/x/tools/go/analysis, reimplemented locally on the standard
// library (go/ast, go/types, go list) so the module keeps zero external
// dependencies and the linter builds offline. hotalloc's cross-package
// call graph rides on a fact mechanism (facts.go) modeled on x/tools
// facts, extended with a module-wide Finish pass.
//
// The suite reads three directives, each with a mandatory reason:
//
//	//lint:ignore hotalloc <reason>
//	//lint:hotpath <reason>
//	//lint:coldpath <reason>
//
// An ignore sits at the end of the offending line or alone on the line
// directly above it; the markers sit in a function's doc comment. Any
// other //lint: comment, or one without a reason, is itself a diagnostic
// ("lintdirective"). See CONTRIBUTING.md for the directive reference.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one named rule. Run inspects a single package via
// its Pass and reports findings through pass.Report/Reportf; analyzers
// with cross-package rules export facts from Run and reconcile them in
// Finish, which the runner calls once after every package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives. It must be a valid Go identifier.
	Name string

	// Run applies the rule to one type-checked package. Diagnostics go
	// through pass.Report; the error return is for analysis failures
	// (not findings) and aborts the whole run.
	Run func(*Pass) error

	// Finish, if non-nil, runs once per analysis run after every package,
	// with access to all exported facts. Diagnostics reported here must
	// carry a resolved Position (facts store Pos for exactly this purpose).
	Finish func(*FinishPass) error
}

// A Pass provides one analyzer with a single type-checked package and a
// sink for diagnostics — the same contract as x/tools' analysis.Pass —
// plus fact export/import against the current run's fact store.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report records a finding. The runner fills Diagnostic.Analyzer and
	// Diagnostic.Position and applies suppression directives.
	Report func(Diagnostic)

	run *runner
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Position resolves a token.Pos against the pass's FileSet.
func (p *Pass) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// ObjectKey returns obj's fact key ("pkg#Name", "pkg#T.M", "pkg#T#f"),
// or ok=false for objects facts cannot describe (locals, universe
// objects). Analyzers use it to record references to other packages'
// objects inside their own facts (e.g. hotalloc's call-graph edges).
func (p *Pass) ObjectKey(obj types.Object) (string, bool) {
	return p.run.keys.keyOf(obj)
}

// ExportObjectFact exports a fact about obj, which must be keyable: a
// package-level object, a method, or a field of a package-level named
// struct type (see facts.go). Reports whether the object was keyable.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) bool {
	key, ok := p.run.keys.keyOf(obj)
	if !ok {
		return false
	}
	p.run.store.put(p.Analyzer.Name, key, f)
	return true
}

// ImportObjectFact copies the fact of f's type about obj into f and
// reports whether one was found. Facts exported by this package and by
// every package analyzed before it (its module-internal dependencies, at
// least) are visible.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	key, ok := p.run.keys.keyOf(obj)
	if !ok {
		return false
	}
	return p.run.store.get(p.Analyzer.Name, key, f)
}

// A FinishPass gives an analyzer's Finish hook a module-wide view of its
// facts. Diagnostics must set Position: there is no FileSet here, only
// the Pos values facts carry.
type FinishPass struct {
	Analyzer *Analyzer

	// Report records a finding at Diagnostic.Position. The runner applies
	// suppression directives collected from every loaded package.
	Report func(Diagnostic)

	run *runner
}

// AllObjectFacts returns every object fact of example's type exported by
// this analyzer, sorted by object key.
func (fp *FinishPass) AllObjectFacts(example Fact) []KeyedFact {
	return fp.run.store.all(fp.Analyzer.Name, example)
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string

	// Filled in by the runner (Finish hooks set Position themselves).
	Analyzer string
	Position token.Position

	// Suggest, when set, is the copy-paste directive that would accept
	// this finding; dcpimlint prints it under the finding.
	Suggest string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Analyzers returns the dcpimlint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{HotAlloc}
}
