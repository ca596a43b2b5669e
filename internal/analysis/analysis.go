// Package analysis implements dcpimlint, the static check behind the
// simulator's zero-allocation hot paths (DESIGN.md §17). Its one rule is
// hotalloc: a function marked //lint:hotpath, plus everything it
// statically calls inside the module, must contain no allocation sites.
// A benchmark only measures the call tree it happens to run, so a new
// allocation in a rarely taken branch passes every runtime test; hotalloc
// sees it. The determinism and ownership contracts are held by tests
// instead — golden digests at every shard count and the race legs
// (DESIGN.md §12). cmd/dcpimlint runs the check and CI gates on a clean
// exit.
//
// The check is one pass over the whole module, built on the standard
// library alone (go/ast, go/types, go list), so the module keeps zero
// external dependencies and the linter builds offline. load type-checks
// every module package from source against the others, so a function is
// one *types.Func in every package that calls it and the call graph
// needs no keys.
//
// dcpimlint reads three directives, each with a mandatory reason:
//
//	//lint:ignore hotalloc <reason>
//	//lint:hotpath <reason>
//	//lint:coldpath <reason>
//
// An ignore sits at the end of the offending line or alone on the line
// directly above it; the markers sit in a function's doc comment. Any
// other //lint: comment, or one without a reason, is itself a finding
// ("lintdirective"). See CONTRIBUTING.md for the directive reference.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"maps"
	"slices"
	"strings"
)

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Analyzer string // "hotalloc", or "lintdirective" for a bad //lint: comment
	Position token.Position
	Message  string

	// Suggest, when set, is the copy-paste directive that would accept
	// this finding; dcpimlint prints it under the finding.
	Suggest string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// RunDir loads patterns relative to dir (see load) and returns every
// unsuppressed finding, sorted by position.
func RunDir(dir string, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return run(pkgs), nil
}

// run checks pkgs, which must come from load. hotalloc findings are kept
// wherever a hot root reaches, in target and dependency packages alike,
// unless a //lint:ignore in any loaded package covers them. Directive
// findings are kept for target packages only.
func run(pkgs []*srcPkg) []Diagnostic {
	sup := make(suppressions)
	var diags []Diagnostic
	for _, p := range pkgs {
		s, bad := collectSuppressions(p)
		maps.Copy(sup, s)
		if p.target {
			diags = append(diags, bad...)
		}
	}
	hotAlloc(pkgs, func(d Diagnostic) {
		if !sup.suppresses(d.Analyzer, d.Position) {
			diags = append(diags, d)
		}
	})
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(
			cmp.Compare(a.Position.Filename, b.Position.Filename),
			cmp.Compare(a.Position.Line, b.Position.Line),
			cmp.Compare(a.Position.Column, b.Position.Column),
			cmp.Compare(a.Analyzer, b.Analyzer))
	})
	return diags
}

// directives are the //lint: forms dcpimlint reads, each followed by a
// reason.
var directives = []string{"//lint:ignore hotalloc", "//lint:hotpath", "//lint:coldpath"}

// A suppression is one analyzer silenced on one line of one file.
type suppression struct {
	file     string
	line     int
	analyzer string
}

// suppressions is the set of lines each //lint:ignore directive covers.
type suppressions map[suppression]bool

func (s suppressions) suppresses(analyzer string, pos token.Position) bool {
	return s[suppression{pos.Filename, pos.Line, analyzer}]
}

// collectSuppressions scans every comment in p for lint directives. A
// directive covers its own line and, when it stands alone on a line, the
// line directly below — so it can trail the offending statement or sit
// immediately above it. Every //lint: comment must be one of
// directives, with a reason; any other, such as one left behind by a deleted
// analyzer, comes back as a diagnostic and takes no effect. The
// hotpath/coldpath markers are checked here only; hotalloc reads them
// from function doc comments itself.
func collectSuppressions(p *srcPkg) (suppressions, []Diagnostic) {
	sup := make(suppressions)
	var bad []Diagnostic
	for _, f := range p.files {
		code := codeLines(p.fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				keyword, analyzer, reason, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := p.fset.Position(c.Pos())
				report := func(format string, args ...any) {
					bad = append(bad, Diagnostic{
						Analyzer: "lintdirective",
						Position: pos,
						Message:  fmt.Sprintf(format, args...),
					})
				}
				directive := strings.TrimSpace("//lint:" + keyword + " " + analyzer)
				switch {
				case !slices.Contains(directives, directive):
					report("unknown directive %s: dcpimlint reads only %s", directive, strings.Join(directives, ", "))
				case reason == "":
					report("%s directive needs a reason", directive)
				case keyword == "ignore":
					sup[suppression{pos.Filename, pos.Line, analyzer}] = true
					if !code[pos.Line] {
						sup[suppression{pos.Filename, pos.Line + 1, analyzer}] = true
					}
				}
			}
		}
	}
	return sup, bad
}

// parseDirective splits a //lint: comment into its keyword ("ignore",
// "hotpath", "coldpath", or any other word, which is stale), the
// analyzer an ignore names, and the reason that follows. ok is false
// for every comment that does not begin with //lint:.
func parseDirective(text string) (keyword, analyzer, reason string, ok bool) {
	rest, ok := strings.CutPrefix(text, "//lint:")
	if !ok {
		return "", "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) > 0 {
		keyword, fields = fields[0], fields[1:]
	}
	if keyword == "ignore" && len(fields) > 0 {
		analyzer, fields = fields[0], fields[1:]
	}
	return keyword, analyzer, strings.Join(fields, " "), true
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
