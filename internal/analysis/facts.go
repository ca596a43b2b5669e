package analysis

// facts.go implements the cross-package fact mechanism (DESIGN.md §17):
// a package's analysis can export typed facts about its objects, and
// analyses of downstream packages — or a module-wide Finish pass — import
// them. The design follows
// golang.org/x/tools/go/analysis facts, adapted to this module's zero-dep
// loader:
//
//   - Facts are keyed by STRINGS, not types.Object identity. The loader
//     type-checks each package against compiler export data, so the same
//     dependency object has a different identity in every importing
//     package; a stable textual key ("pkg#Name", "pkg#T.Method",
//     "pkg#T#field") makes facts identity-free.
//   - Packages are analyzed in dependency order (load.go topo-sorts), so
//     by the time a package runs, every fact its module-internal imports
//     exported is present — the same guarantee x/tools drivers give.
//   - Analyzers that need a view wider than the import DAG (e.g. "was
//     this field EVER accessed atomically, anywhere?") declare a Finish
//     hook, which runs once after every package and can enumerate all
//     facts. x/tools has no equivalent; our runner owns the whole module,
//     so it can.
//
// Facts must be pointers to structs and are treated as immutable once
// exported: importing copies the value, but deep state (slices, maps) is
// shared — do not mutate an imported fact.

import (
	"fmt"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// A Fact is a datum exported by the analysis of one package for the
// analyses of other packages (or the Finish pass). Implementations must
// be pointers to structs; AFact is a marker.
type Fact interface{ AFact() }

// Pos is a resolved source position. Facts carry Pos instead of
// token.Pos because fact consumers (Finish hooks) have no FileSet.
type Pos struct {
	File string
	Line int
	Col  int
}

// MakePos converts a resolved token.Position.
func MakePos(p token.Position) Pos {
	return Pos{File: p.Filename, Line: p.Line, Col: p.Column}
}

// Position converts back to a token.Position (offset unknown).
func (p Pos) Position() token.Position {
	return token.Position{Filename: p.File, Line: p.Line, Column: p.Col}
}

func (p Pos) String() string { return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col) }

// prettyKey renders an object key for diagnostics: "pkg#T#f" → "pkg.T.f".
func prettyKey(key string) string {
	return strings.ReplaceAll(key, "#", ".")
}

// keyIndex lazily maps types.Objects to their fact keys, one index per
// *types.Package so source-checked and export-data instances of the same
// package each resolve (to identical keys).
type keyIndex map[*types.Package]map[types.Object]string

func (idx keyIndex) keyOf(obj types.Object) (string, bool) {
	if obj == nil {
		return "", false
	}
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	pkg := obj.Pkg()
	if pkg == nil {
		return "", false
	}
	m, ok := idx[pkg]
	if !ok {
		m = buildKeyIndex(pkg)
		idx[pkg] = m
	}
	k, ok := m[obj]
	return k, ok
}

// buildKeyIndex walks a package scope and keys every package-level
// object, every method of a package-level named type, and every field of
// a package-level named struct type. Function-local types are not keyed:
// facts about them cannot be meaningful outside their package.
func buildKeyIndex(pkg *types.Package) map[types.Object]string {
	m := make(map[types.Object]string)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		m[obj] = pkg.Path() + "#" + name
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			meth := named.Method(i)
			m[meth] = pkg.Path() + "#" + name + "." + meth.Name()
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				m[f] = pkg.Path() + "#" + name + "#" + f.Name()
			}
		}
	}
	return m
}

// factKey identifies one fact: which analyzer exported it, about which
// object, of which fact type.
type factKey struct {
	analyzer string
	object   string
	typ      reflect.Type
}

// factStore holds every fact exported during one run.
type factStore map[factKey]Fact

// put records a fact. Re-exporting the same (analyzer, object, type)
// overwrites: marker facts from several packages coexist naturally, and
// data facts follow the convention that only one package (the declaring
// one) exports them.
func (s factStore) put(analyzer, object string, f Fact) {
	s[factKey{analyzer, object, reflect.TypeOf(f)}] = f
}

// get copies the fact for (analyzer, object, type-of-into) into into and
// reports whether one was found.
func (s factStore) get(analyzer, object string, into Fact) bool {
	f, ok := s[factKey{analyzer, object, reflect.TypeOf(into)}]
	if !ok {
		return false
	}
	reflect.ValueOf(into).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// A KeyedFact pairs a fact with the key of the object it describes.
type KeyedFact struct {
	Object string
	Fact   Fact
}

// all returns every fact of example's dynamic type exported under
// analyzer, sorted by object key for deterministic iteration.
func (s factStore) all(analyzer string, example Fact) []KeyedFact {
	typ := reflect.TypeOf(example)
	var out []KeyedFact
	for k, f := range s {
		if k.analyzer != analyzer || k.typ != typ {
			continue
		}
		out = append(out, KeyedFact{Object: k.object, Fact: f})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object < out[j].Object })
	return out
}
