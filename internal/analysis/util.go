package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// modulePath is the import-path root all path-keyed rules are expressed
// against. Fixture modules under testdata mirror it so the same analyzers
// exercise the same predicates in tests.
const modulePath = "dcpim"

// hasPathPrefix reports whether path is prefix itself or a package below it.
func hasPathPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// digestPathPackages are the package subtrees whose iteration order can
// reach golden digests, counters, or CSV/JSON artifacts (DESIGN.md §11).
var digestPathPackages = []string{
	modulePath + "/internal/sim",
	modulePath + "/internal/netsim",
	modulePath + "/internal/core",
	modulePath + "/internal/matching",
	modulePath + "/internal/metrics",
	modulePath + "/internal/experiments",
	modulePath + "/internal/protocols",
}

// onDigestPath reports whether the package's iteration order can feed a
// digest or artifact.
func onDigestPath(pkgPath string) bool {
	for _, p := range digestPathPackages {
		if hasPathPrefix(pkgPath, p) {
			return true
		}
	}
	return false
}

// simPathPackages are the subtrees that execute inside (or orchestrate)
// the event loop, where ad-hoc concurrency would race the engines. The
// sanctioned concurrency sites — sim.Group and experiments.RunMany —
// carry //lint:ignore directives rather than a package exemption, so a
// new `go` statement anywhere near the simulation is a finding by default.
var simPathPackages = append([]string{modulePath + "/internal/packet"}, digestPathPackages...)

// onSimPath reports whether the package runs on the simulation path.
func onSimPath(pkgPath string) bool {
	for _, p := range simPathPackages {
		if hasPathPrefix(pkgPath, p) {
			return true
		}
	}
	return false
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

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isMethod reports whether fn is a method named name whose receiver's
// named type is declared in pkgPath with type name typeName.
func isMethod(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == typeName
}

// callsInto reports whether any call inside expr resolves to the
// package-level function pkgPath.name (e.g. a time.Now() buried in a
// seed expression).
func callsInto(info *types.Info, expr ast.Expr, pkgPath, name string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPkgFunc(funcObject(info, call.Fun), pkgPath, name) {
			found = true
		}
		return !found
	})
	return found
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// inspectStack walks the AST like ast.Inspect, additionally passing the
// stack of ancestor nodes (outermost first, excluding n itself). The
// callback's return controls descent into n's children.
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		desc := fn(n, stack)
		if desc {
			stack = append(stack, n)
		}
		return desc
	})
}

// directiveLines maps every line of f covered by the named //lint:
// directive to its reason, using the shared placement convention: a
// directive covers its own line, plus the line below when it stands
// alone. Reasonless directives are included (reason "") — the caller
// decides whether to report them; collectSuppressions already reports
// reasonless //lint: forms.
func directiveLines(fset *token.FileSet, f *ast.File, name string, parse func(text string) (string, string, bool)) map[int]string {
	covered := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.Comment); ok {
			return false
		}
		if _, ok := n.(*ast.CommentGroup); ok {
			return false
		}
		covered[fset.Position(n.Pos()).Line] = true
		return true
	})
	out := make(map[int]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			dn, reason, ok := parse(c.Text)
			if !ok || dn != name {
				continue
			}
			line := fset.Position(c.Pos()).Line
			out[line] = reason
			if !covered[line] {
				out[line+1] = reason
			}
		}
	}
	return out
}

// namedTypeIs reports whether t (after stripping pointers) is the named
// type pkgPath.typeName.
func namedTypeIs(t types.Type, pkgPath, typeName string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == typeName
}
