package analysis

import (
	"go/ast"
	"go/types"
)

// atomicfield enforces exclusive sync/atomic discipline on fields the
// package manages atomically (DESIGN.md §17). The instruments every shard
// of a run adds to (metrics.Counter, metrics.Gauge) and the sharded fabric
// counters stay correct under -race only because every access to them goes
// through sync/atomic; one plain `c.v = 0` compiles fine, passes
// single-shard tests, and races only under load.
//
// Two flavors of atomic field, two detection paths:
//
//   - Typed atomics (atomic.Int32, atomic.Uint64, ...): declared atomic by
//     their type. The only legal use of such a field is as the receiver of
//     a method call (Load/Store/Add/CAS); anything else — taking its
//     address to pass around, copying it, ranging over it — is reported
//     immediately, in whatever package the access occurs.
//   - Legacy pointer-style (atomic.AddInt64(&x.f, 1)): the first
//     &x.f-style argument of a sync/atomic call marks the field, and the
//     declaring (or any observing) package exports an AtomicFieldFact on
//     it. Plain reads and writes of a marked field are reported — in the
//     marking package itself and, via fact import, in every package
//     analyzed after it (its dependents). The one exemption is
//     constructor-shaped functions: a function that creates the containing
//     struct (composite literal, new, or var declaration of the type) may
//     initialize the field plainly, since nothing else can hold a
//     reference yet.
//
// Known limit, accepted: a package that is neither the marker nor its
// dependent (a topological sibling) is analyzed before the fact exists and
// escapes the pointer-style check. Typed atomics — the repo's convention —
// have no such gap, which is itself an argument for preferring them.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc: "fields managed via sync/atomic must never be read or written " +
		"plainly outside the containing struct's construction",
	Run: runAtomicField,
}

// AtomicFieldFact marks one struct field as managed by pointer-style
// sync/atomic calls. Pos is the marking call site, quoted in diagnostics
// so the reader can see why the field is off-limits.
type AtomicFieldFact struct {
	Pos Pos
}

func (*AtomicFieldFact) AFact() {}

// atomicTypeNames are sync/atomic's typed-atomic wrappers.
var atomicTypeNames = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

func runAtomicField(pass *Pass) error {
	info := pass.TypesInfo

	// Sub-pass 1: find pointer-style atomic call sites. Every &x.f passed
	// to a sync/atomic function marks field f and sanctions that
	// particular selector node.
	marked := make(map[*types.Var]Pos)    // field → marking site (this package)
	sanctioned := make(map[ast.Node]bool) // selectors inside atomic call args
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcObject(info, call.Fun)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op.String() != "&" {
					continue
				}
				se, ok := un.X.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if fld := fieldVarOf(info, se); fld != nil {
					sanctioned[se] = true
					if _, dup := marked[fld]; !dup {
						pos := MakePos(pass.Position(un.Pos()))
						marked[fld] = pos
						pass.ExportObjectFact(fld, &AtomicFieldFact{Pos: pos})
					}
				}
			}
			return true
		})
	}

	// Sub-pass 2: check every field selector. Constructor-shaped functions
	// are identified up front per function declaration.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			constructed := constructedTypes(info, fd.Body)
			inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
				se, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fld := fieldVarOf(info, se)
				if fld == nil {
					return true
				}
				// Typed atomics: the selector must be the receiver of a
				// further selection (its method) — atomic types export
				// nothing else, so parent-is-selector means method use.
				if isAtomicType(fld.Type()) {
					if len(stack) > 0 {
						if p, ok := stack[len(stack)-1].(*ast.SelectorExpr); ok && p.X == se {
							return true
						}
					}
					pass.Reportf(se.Sel.Pos(),
						"field %s has atomic type %s and may only be used as a method-call receiver",
						fld.Name(), fld.Type())
					return true
				}
				// Pointer-style: plain access to a marked field, outside
				// the sanctioned call args and construction.
				if sanctioned[se] {
					return true
				}
				site, isMarked := marked[fld]
				if !isMarked {
					var fact AtomicFieldFact
					if !pass.ImportObjectFact(fld, &fact) {
						return true
					}
					site = fact.Pos
				}
				if owner := owningNamed(info, se); owner != nil && constructed[owner.Origin()] {
					return true
				}
				pass.Reportf(se.Sel.Pos(),
					"field %s is managed by sync/atomic (e.g. at %s) and must not be accessed plainly",
					fld.Name(), site)
				return true
			})
		}
	}
	return nil
}

// fieldVarOf returns the struct field se selects, or nil.
func fieldVarOf(info *types.Info, se *ast.SelectorExpr) *types.Var {
	sel := info.Selections[se]
	if sel == nil || sel.Kind() != types.FieldVal {
		return nil
	}
	v, _ := sel.Obj().(*types.Var)
	return v
}

// owningNamed returns the named struct type that directly declares the
// field se selects (resolving through embedded promotions), or nil.
func owningNamed(info *types.Info, se *ast.SelectorExpr) *types.Named {
	sel := info.Selections[se]
	if sel == nil {
		return nil
	}
	t := sel.Recv()
	var owner *types.Named
	for _, idx := range sel.Index() {
		named, _ := deref(t).(*types.Named)
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			return nil
		}
		owner = named
		t = st.Field(idx).Type()
	}
	return owner
}

// isAtomicType reports whether t is one of sync/atomic's typed wrappers.
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Origin().Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && atomicTypeNames[obj.Name()]
}

// constructedTypes returns the named struct types body creates: composite
// literals, new(T), and var declarations of T. A function that constructs
// the value owns it exclusively until it escapes, so plain initialization
// of its atomic-managed fields there is safe.
func constructedTypes(info *types.Info, body *ast.BlockStmt) map[*types.Named]bool {
	out := make(map[*types.Named]bool)
	add := func(t types.Type) {
		if named, ok := deref(t).(*types.Named); ok {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct {
				out[named.Origin()] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CompositeLit:
			add(info.TypeOf(x))
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && len(x.Args) == 1 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "new" {
					add(info.TypeOf(x.Args[0]))
				}
			}
		case *ast.ValueSpec:
			if x.Type != nil {
				add(info.TypeOf(x.Type))
			}
		}
		return true
	})
	return out
}
