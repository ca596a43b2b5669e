// Package analysis implements dcpimlint: a suite of static analyzers that
// machine-enforce the simulator's determinism, ownership, and hot-path
// contracts (DESIGN.md §12, §17). The headline invariant — same
// seed ⇒ byte-identical digests, counters, and CSV/JSON artifacts at any
// shard count — rests on conventions that code review alone cannot hold:
// seeded *rand.Rand streams instead of the global math/rand functions, no
// wall-clock reads inside internal/, deterministic iteration over maps
// that feed digests or metrics, the packet.Keep/ReleaseUnlessKept
// ownership contract, concurrency confined to sim.Group/experiments.RunMany,
// exclusive sync/atomic discipline on fields it manages, and allocation-free
// //lint:hotpath call graphs. Each rule here is an Analyzer; cmd/dcpimlint
// runs them all and CI gates on a clean exit.
//
// The Analyzer/Pass/Diagnostic surface is an API-compatible subset of
// golang.org/x/tools/go/analysis, reimplemented locally on the standard
// library (go/ast, go/types, go list) so the module keeps zero external
// dependencies and the linter builds offline. Cross-package rules ride on
// a fact mechanism (facts.go) modeled on x/tools facts, extended with a
// module-wide Finish pass. If the repo ever vendors x/tools, the
// single-package analyzers port by changing only the import path.
//
// Suppression syntax, shared by every analyzer:
//
//	//lint:ignore <analyzer> <reason>
//
// placed at the end of the offending line or alone on the line directly
// above it. The reason is mandatory; an ignore directive without one is
// itself a diagnostic. Two analyzers honor additional directives:
// //lint:deterministic <reason> (maprange), and //lint:hotpath <reason> /
// //lint:coldpath <reason> (hotalloc). See CONTRIBUTING.md for the full
// directive reference.
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

	// Doc is the one-paragraph help text shown by `dcpimlint -list`.
	Doc string

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

// ExportPackageFact exports a fact about the package being analyzed.
func (p *Pass) ExportPackageFact(f Fact) {
	p.run.store.put(p.Analyzer.Name, p.Pkg.Path(), f)
}

// ImportPackageFact copies the fact of f's type about the package with
// the given import path into f and reports whether one was found.
func (p *Pass) ImportPackageFact(path string, f Fact) bool {
	return p.run.store.get(p.Analyzer.Name, path, f)
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

// ObjectFact copies the fact of f's type about the object with the given
// key into f and reports whether one was found.
func (fp *FinishPass) ObjectFact(key string, f Fact) bool {
	return fp.run.store.get(fp.Analyzer.Name, key, f)
}

// AllObjectFacts returns every object fact of example's type exported by
// this analyzer, sorted by object key.
func (fp *FinishPass) AllObjectFacts(example Fact) []KeyedFact {
	return fp.run.store.all(fp.Analyzer.Name, example, true)
}

// AllPackageFacts returns every package fact of example's type exported
// by this analyzer, sorted by package path.
func (fp *FinishPass) AllPackageFacts(example Fact) []KeyedFact {
	return fp.run.store.all(fp.Analyzer.Name, example, false)
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos `json:"-"`
	Message string    `json:"message"`

	// Filled in by the runner (Finish hooks set Position themselves).
	Analyzer string         `json:"analyzer"`
	Position token.Position `json:"position"`

	// Suggest is the copy-paste directive that would accept this finding
	// (dcpimlint prints it under the finding). Analyzers may set it; the
	// runner fills a default //lint:ignore form when empty.
	Suggest string `json:"suggest,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Analyzers returns the full dcpimlint suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		GlobalRand,
		Wallclock,
		MapRange,
		PacketOwn,
		SimGoroutine,
		AtomicField,
		HotAlloc,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
