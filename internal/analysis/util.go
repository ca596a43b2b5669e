package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// modulePath is the import-path root hotalloc follows call edges within.
// The fixture module under testdata mirrors it, so tests exercise the
// same predicate.
const modulePath = "dcpim"

// hasPathPrefix reports whether path is prefix itself or a package below it.
func hasPathPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
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

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// codeLines returns the lines of f that hold non-comment code. A //lint:
// directive on such a line trails the code it covers; one alone on its
// line covers the line below as well.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		return true
	})
	return lines
}

// directiveLines maps every line of f covered by the named //lint:
// directive to its reason, under the placement rule of codeLines.
// Reasonless directives are included (reason ""): collectSuppressions
// already reports them, and the caller decides whether they count.
func directiveLines(fset *token.FileSet, f *ast.File, name string) map[int]string {
	code := codeLines(fset, f)
	out := make(map[int]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			keyword, _, reason, ok := parseDirective(c.Text)
			if !ok || keyword != name {
				continue
			}
			line := fset.Position(c.Pos()).Line
			out[line] = reason
			if !code[line] {
				out[line+1] = reason
			}
		}
	}
	return out
}
