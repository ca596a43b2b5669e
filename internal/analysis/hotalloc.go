package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// hotalloc enforces the zero-allocation contract on hot paths (DESIGN.md
// §17). The 0-alloc benchmarks (BenchmarkOnPacket, the engine hold model,
// barrier epochs) already gate allocations at the root function, but a benchmark
// only measures the call tree it happens to exercise; a new allocation in
// a rarely-taken branch, or in a helper three calls down, slips through
// until a perf regression shows up as a digest-preserving slowdown.
// hotalloc closes that statically: a function marked //lint:hotpath
// <reason>, plus everything it statically calls inside the module, must
// contain no allocation sites.
//
// Per package, Run exports an AllocProfileFact for every function: whether
// it is marked hot (//lint:hotpath) or cold (//lint:coldpath — e.g. a
// lane ring's grow path, amortized and deliberately allocating), its
// syntactic allocation sites, and its static in-module callees. Finish
// walks the call graph from every hot root, stops at cold nodes, and
// reports each reachable allocation once.
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
var HotAlloc = &Analyzer{
	Name:   "hotalloc",
	Run:    runHotAlloc,
	Finish: finishHotAlloc,
}

// AllocSite is one syntactic allocation inside a function.
type AllocSite struct {
	Pos  Pos
	What string
}

// AllocProfileFact is one function's hot-path profile: markings,
// allocation sites, and static in-module call edges.
type AllocProfileFact struct {
	Hot    bool
	Cold   bool
	Allocs []AllocSite
	Calls  []string // callee fact keys, sorted
}

func (*AllocProfileFact) AFact() {}

func runHotAlloc(pass *Pass) error {
	info := pass.TypesInfo
	for _, f := range pass.Files {
		hotLines := directiveLines(pass.Fset, f, "hotpath")
		coldLines := directiveLines(pass.Fset, f, "coldpath")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			prof := &AllocProfileFact{}
			line := pass.Position(fd.Pos()).Line
			if r, ok := hotLines[line]; ok && r != "" {
				prof.Hot = true
			}
			if r, ok := coldLines[line]; ok && r != "" {
				prof.Cold = true
			}
			prof.Allocs, prof.Calls = scanFuncBody(pass, fd)
			if prof.Hot || prof.Cold || len(prof.Allocs) > 0 || len(prof.Calls) > 0 {
				pass.ExportObjectFact(fn, prof)
			}
		}
	}
	return nil
}

// scanFuncBody collects fd's allocation sites and static in-module call
// edges. Nested func literals are scanned only for the capture check: a
// closure body runs on its own activation, and if the closure itself is
// hot it carries its own marking (closures aren't keyable, so in practice
// hot closures are hoisted to methods — which the capture rule nudges
// toward anyway).
func scanFuncBody(pass *Pass, fd *ast.FuncDecl) ([]AllocSite, []string) {
	info := pass.TypesInfo
	var allocs []AllocSite
	calls := make(map[string]bool)
	counted := make(map[ast.Node]bool) // composite lits already reported via &
	site := func(n ast.Node, what string) {
		allocs = append(allocs, AllocSite{Pos: MakePos(pass.Position(n.Pos())), What: what})
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
			scanCall(pass, x, site, calls)
		}
		return true
	})
	out := make([]string, 0, len(calls))
	for k := range calls {
		out = append(out, k)
	}
	sort.Strings(out)
	return allocs, out
}

// scanCall classifies one call expression: allocating builtin, allocating
// conversion, interface-boxing arguments, or a static call edge.
func scanCall(pass *Pass, call *ast.CallExpr, site func(ast.Node, string), calls map[string]bool) {
	info := pass.TypesInfo
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
			checkBoxing(pass, call, sig, site)
		}
		if fn.Pkg() != nil && hasPathPrefix(fn.Pkg().Path(), modulePath) {
			if key, ok := pass.ObjectKey(fn); ok {
				calls[key] = true
			}
		}
		return
	}
	// Dynamic call (function value, interface method on unresolvable
	// receiver): not traversable; the boxing check still applies if the
	// signature is known.
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok && sig != nil {
		checkBoxing(pass, call, sig, site)
	}
}

// checkBoxing reports args whose concrete, non-pointer-shaped value is
// passed to an interface parameter — the conversion heap-boxes the value.
func checkBoxing(pass *Pass, call *ast.CallExpr, sig *types.Signature, site func(ast.Node, string)) {
	if call.Ellipsis.IsValid() {
		return // slice passed through verbatim, no boxing here
	}
	info := pass.TypesInfo
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

func finishHotAlloc(fp *FinishPass) error {
	profiles := make(map[string]*AllocProfileFact)
	var roots []string
	for _, kf := range fp.AllObjectFacts((*AllocProfileFact)(nil)) {
		prof := kf.Fact.(*AllocProfileFact)
		profiles[kf.Object] = prof
		if prof.Hot {
			roots = append(roots, kf.Object)
		}
	}
	sort.Strings(roots)
	reported := make(map[Pos]bool)
	for _, root := range roots {
		// BFS over static call edges, skipping cold nodes.
		queue := []string{root}
		visited := map[string]bool{root: true}
		for len(queue) > 0 {
			key := queue[0]
			queue = queue[1:]
			prof := profiles[key]
			if prof == nil {
				continue // leaf with no profile: no allocs, no calls
			}
			if prof.Cold && key != root {
				continue
			}
			for _, a := range prof.Allocs {
				if reported[a.Pos] {
					continue
				}
				reported[a.Pos] = true
				where := prettyKey(key)
				msg := fmt.Sprintf("%s in hot-path function %s", a.What, where)
				if key != root {
					msg += fmt.Sprintf(" (reached from //lint:hotpath root %s)", prettyKey(root))
				}
				fp.Report(Diagnostic{
					Message:  msg,
					Position: a.Pos.Position(),
					Suggest:  "//lint:ignore hotalloc <why this site cannot allocate in practice>, or //lint:coldpath <reason> on the containing function",
				})
			}
			for _, callee := range prof.Calls {
				if !visited[callee] {
					visited[callee] = true
					queue = append(queue, callee)
				}
			}
		}
	}
	return nil
}
