package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// hotAlloc enforces the zero-allocation contract on hot paths (DESIGN.md
// §17). The 0-alloc tests and benchmarks (TestForwardingAllocs, the
// engine step and group epoch tests in internal/sim, the forwarding and
// end-to-end benchmarks) gate allocations at the root function, but they
// only measure the call tree they happen to exercise; a new allocation in
// a rarely-taken branch, or in a helper three calls down, slips through
// until a perf regression shows up as a digest-preserving slowdown.
// hotalloc closes that statically: a function marked //lint:hotpath
// <reason>, plus everything it statically calls inside the module, must
// contain no allocation sites.
//
// Allocation sites recognized (conservative — provability, not escape
// analysis, decides):
//
//   - make, new, append (growth is statically unknowable, so all appends)
//   - &T{...} composite literals, and slice/map literals anywhere
//   - conversions between string and []byte/[]rune
//   - func literals that capture variables of the enclosing function
//   - concrete, non-pointer-shaped values passed to interface parameters
//     (including variadic ...interface{})
//
// Escapes: a site that provably cannot allocate (appends into
// pre-grown capacity, a composite literal the compiler keeps on the
// stack) carries //lint:ignore hotalloc <reason>; a whole deliberate slow
// path carries //lint:coldpath <reason> on its function. Calls through
// interfaces or function values are not resolvable statically and are not
// traversed — the benchmarks still cover those.
//
// hotAlloc profiles every function declared in pkgs, then walks the call
// graph breadth-first from each //lint:hotpath root in key order, stops
// at //lint:coldpath functions other than the root, and reports each
// reachable allocation site once, naming the first root that reaches it.
func hotAlloc(pkgs []*srcPkg, report func(Diagnostic)) {
	fns := make(map[*types.Func]*profile)
	var roots []*profile
	for _, p := range pkgs {
		for _, f := range p.files {
			hotLines := directiveLines(p.fset, f, "hotpath")
			coldLines := directiveLines(p.fset, f, "coldpath")
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := p.info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				line := p.fset.Position(fd.Pos()).Line
				n := &profile{key: funcKey(obj), hot: hotLines[line] != "", cold: coldLines[line] != ""}
				n.allocs, n.callees = scanFuncBody(p.fset, p.info, fd)
				fns[obj] = n
				if n.hot {
					roots = append(roots, n)
				}
			}
		}
	}
	byKey := func(a, b *profile) int { return cmp.Compare(a.key, b.key) }
	for _, n := range fns {
		for callee := range n.callees {
			if c := fns[callee]; c != nil {
				n.calls = append(n.calls, c)
			}
		}
		slices.SortFunc(n.calls, byKey)
	}
	slices.SortFunc(roots, byKey)

	reported := make(map[token.Position]bool)
	for _, root := range roots {
		queue := []*profile{root}
		visited := map[*profile]bool{root: true}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if n.cold && n != root {
				continue
			}
			for _, a := range n.allocs {
				if reported[a.pos] {
					continue
				}
				reported[a.pos] = true
				msg := fmt.Sprintf("%s in hot-path function %s", a.what, n.name())
				if n != root {
					msg += fmt.Sprintf(" (reached from //lint:hotpath root %s)", root.name())
				}
				report(Diagnostic{
					Analyzer: "hotalloc",
					Position: a.pos,
					Message:  msg,
					Suggest:  "//lint:ignore hotalloc <why this site cannot allocate in practice>, or //lint:coldpath <reason> on the containing function",
				})
			}
			for _, c := range n.calls {
				if !visited[c] {
					visited[c] = true
					queue = append(queue, c)
				}
			}
		}
	}
}

// A profile is one declared function's profile: its markings, its syntactic
// allocation sites, and its static callees declared in the loaded
// packages.
type profile struct {
	key       string // "pkg#Name" or "pkg#T.Method": orders roots and callees
	hot, cold bool
	allocs    []allocSite
	callees   map[*types.Func]bool // every static callee, generic ones by Origin
	calls     []*profile           // the callees declared in the module, by key
}

// name renders key for diagnostics: "pkg#T.M" → "pkg.T.M".
func (p *profile) name() string { return strings.Replace(p.key, "#", ".", 1) }

// allocSite is one syntactic allocation inside a function.
type allocSite struct {
	pos  token.Position
	what string
}

// funcKey returns obj's sort key: "pkg#Name" for a function, "pkg#T.M"
// for a method of named type T.
func funcKey(obj *types.Func) string {
	name := obj.Name()
	if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
		if t, ok := types.Unalias(deref(recv.Type())).(*types.Named); ok {
			name = t.Obj().Name() + "." + name
		}
	}
	return obj.Pkg().Path() + "#" + name
}

// scanFuncBody collects fd's allocation sites and static callees. Nested
// func literals are scanned only for the capture check: a closure body
// runs on its own activation, and if the closure itself is hot it carries
// its own marking (closures have no declaration to mark, so in practice
// hot closures are hoisted to methods — which the capture rule nudges
// toward anyway).
func scanFuncBody(fset *token.FileSet, info *types.Info, fd *ast.FuncDecl) ([]allocSite, map[*types.Func]bool) {
	var allocs []allocSite
	calls := make(map[*types.Func]bool)
	counted := make(map[ast.Node]bool) // composite lits already reported via &
	site := func(n ast.Node, what string) {
		allocs = append(allocs, allocSite{pos: fset.Position(n.Pos()), what: what})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if capturesOuterVars(info, fd, x) {
				site(x, "closure capturing outer variables")
			}
			return false // interior allocs belong to the literal, not fd
		case *ast.UnaryExpr:
			if x.Op.String() == "&" {
				if lit, ok := x.X.(*ast.CompositeLit); ok {
					site(x, "escaping composite literal")
					counted[lit] = true
				}
			}
		case *ast.CompositeLit:
			if counted[x] {
				return true
			}
			switch deref(info.TypeOf(x)).Underlying().(type) {
			case *types.Slice:
				site(x, "slice literal")
			case *types.Map:
				site(x, "map literal")
			}
		case *ast.CallExpr:
			scanCall(info, x, site, calls)
		}
		return true
	})
	return allocs, calls
}

// scanCall classifies one call expression: allocating builtin, allocating
// conversion, interface-boxing arguments, or a static call edge.
func scanCall(info *types.Info, call *ast.CallExpr, site func(ast.Node, string), calls map[*types.Func]bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				site(call, "make")
			case "new":
				site(call, "new")
			case "append":
				site(call, "append growth")
			}
			return
		}
	}
	// Conversions: T(x) where Fun names a type.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := info.TypeOf(call.Args[0])
		if isStringByteConv(dst, src) {
			site(call, "string conversion")
		}
		return
	}
	// Interface boxing at the call boundary.
	if fn := funcObject(info, call.Fun); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			checkBoxing(info, call, sig, site)
		}
		calls[fn.Origin()] = true
		return
	}
	// Dynamic call (function value, interface method on unresolvable
	// receiver): not traversable; the boxing check still applies if the
	// signature is known.
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && sig != nil {
		checkBoxing(info, call, sig, site)
	}
}

// funcObject resolves expr to the *types.Func it names, if any: a direct
// identifier or a selector (pkg.F, v.Method).
func funcObject(info *types.Info, expr ast.Expr) *types.Func {
	switch e := expr.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	case *ast.ParenExpr:
		return funcObject(info, e.X)
	}
	return nil
}

// checkBoxing reports args whose concrete, non-pointer-shaped value is
// passed to an interface parameter — the conversion heap-boxes the value.
func checkBoxing(info *types.Info, call *ast.CallExpr, sig *types.Signature, site func(ast.Node, string)) {
	if call.Ellipsis.IsValid() {
		return // slice passed through verbatim, no boxing here
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isPointerShaped(at) {
			continue
		}
		site(arg, fmt.Sprintf("interface conversion of %s", at))
	}
}

// isPointerShaped reports whether converting a value of type t to an
// interface stores it inline (single pointer word) rather than boxing.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UntypedNil // a nil interface, nothing to box
	}
	return false
}

// isStringByteConv reports whether dst(src) converts between string and
// []byte/[]rune — conversions that copy.
func isStringByteConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Kind() == types.String
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteSlice(src)) || (isByteSlice(dst) && isStr(src))
}

// capturesOuterVars reports whether lit references variables declared in
// the enclosing function outside the literal itself — captures that force
// a heap-allocated closure (and often heap-promote the captured variable).
func capturesOuterVars(info *types.Info, outer *ast.FuncDecl, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= outer.Pos() && v.Pos() < outer.End() &&
			!(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			captured = true
		}
		return true
	})
	return captured
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
