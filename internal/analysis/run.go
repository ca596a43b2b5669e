package analysis

import (
	"fmt"
	"go/token"
	"maps"
	"slices"
	"sort"
	"strings"
)

// runner carries one analysis run's shared state: the fact store, the
// lazily built object-key indexes, and the module-wide suppression table
// (Finish-phase diagnostics can land in any loaded package's files, so
// suppression must see every package's directives).
type runner struct {
	analyzers []*Analyzer
	store     factStore
	keys      keyIndex
	sup       suppressions
}

// newRunner keeps the first occurrence of each analyzer, so a repeated
// one cannot report every finding twice.
func newRunner(analyzers []*Analyzer) *runner {
	r := &runner{
		store: make(factStore),
		keys:  make(keyIndex),
		sup:   make(suppressions),
	}
	seen := make(map[*Analyzer]bool)
	for _, a := range analyzers {
		if !seen[a] {
			seen[a] = true
			r.analyzers = append(r.analyzers, a)
		}
	}
	return r
}

// runPackage analyzes one package: collects its suppression directives
// (merging them into the module-wide table), runs every analyzer, and
// returns the package's surviving diagnostics — whether they are kept
// depends on the package being a target, which the caller decides.
func (r *runner) runPackage(pkg *Package) ([]Diagnostic, error) {
	sup, diags := collectSuppressions(pkg)
	maps.Copy(r.sup, sup)
	for _, a := range r.analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			run:       r,
		}
		pass.Report = func(d Diagnostic) {
			d.Analyzer = a.Name
			d.Position = pkg.Fset.Position(d.Pos)
			if !sup.suppresses(a.Name, d.Position) {
				diags = append(diags, d)
			}
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
		}
	}
	return diags, nil
}

// finish runs every analyzer's Finish hook over the completed fact store.
// Duplicate findings (the same analyzer, position, and message — e.g. one
// allocation site reachable from two hot roots) collapse to one.
func (r *runner) finish() ([]Diagnostic, error) {
	var out []Diagnostic
	seen := make(map[string]bool)
	for _, a := range r.analyzers {
		if a.Finish == nil {
			continue
		}
		fp := &FinishPass{Analyzer: a, run: r}
		fp.Report = func(d Diagnostic) {
			d.Analyzer = a.Name
			if r.sup.suppresses(a.Name, d.Position) {
				return
			}
			key := fmt.Sprintf("%s\x00%s\x00%d\x00%d\x00%s",
				d.Analyzer, d.Position.Filename, d.Position.Line, d.Position.Column, d.Message)
			if seen[key] {
				return
			}
			seen[key] = true
			out = append(out, d)
		}
		if err := a.Finish(fp); err != nil {
			return nil, fmt.Errorf("%s: finish: %w", a.Name, err)
		}
	}
	return out, nil
}

// Run applies every analyzer to every package, resolves positions,
// filters suppressed findings and non-target packages' findings, runs the
// Finish phase over the accumulated facts, and returns the survivors
// sorted by position. pkgs must come from Load (module-internal
// dependencies present, topologically ordered) for cross-package facts to
// flow correctly. A malformed suppression directive (missing reason) is
// reported as a diagnostic from the pseudo-analyzer "lintdirective" so it
// cannot hide a finding silently, and so is a stale one (see
// collectSuppressions). An analyzer listed twice runs once.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	r := newRunner(analyzers)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		pkgDiags, err := r.runPackage(pkg)
		if err != nil {
			return nil, err
		}
		if pkg.Target {
			diags = append(diags, pkgDiags...)
		}
	}
	fdiags, err := r.finish()
	if err != nil {
		return nil, err
	}
	diags = append(diags, fdiags...)
	sortDiags(diags)
	return diags, nil
}

// RunDir loads patterns relative to dir and runs analyzers over the result.
func RunDir(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return Run(pkgs, analyzers)
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// directives are the //lint: forms the suite reads, each followed by a
// reason.
var directives = []string{"//lint:ignore " + HotAlloc.Name, "//lint:hotpath", "//lint:coldpath"}

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

// collectSuppressions scans every comment in pkg for lint directives. A
// directive covers its own line and, when it stands alone on a line, the
// line directly below — so it can trail the offending statement or sit
// immediately above it. Every //lint: comment must be one of
// directives, with a reason; any other, such as one left behind by a deleted
// analyzer, comes back as a diagnostic and takes no effect. The
// hotpath/coldpath markers are checked here only; hotalloc reads them
// from function doc comments itself.
func collectSuppressions(pkg *Package) (suppressions, []Diagnostic) {
	sup := make(suppressions)
	var bad []Diagnostic
	for _, f := range pkg.Syntax {
		code := codeLines(pkg.Fset, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				keyword, analyzer, reason, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				report := func(format string, args ...any) {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Message:  fmt.Sprintf(format, args...),
						Analyzer: "lintdirective",
						Position: pos,
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
