package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
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
	r.mergeSup(sup)
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
			fillSuggest(&d)
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
			fillSuggest(&d)
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

func (r *runner) mergeSup(sup suppressions) {
	for key, names := range sup {
		dst := r.sup[key]
		if dst == nil {
			dst = make(map[string]bool, len(names))
			r.sup[key] = dst
		}
		for name := range names {
			dst[name] = true
		}
	}
}

// fillSuggest gives every finding a copy-paste acceptance directive,
// which dcpimlint prints under it, unless the analyzer set a more
// specific one (hotalloc also offers //lint:coldpath).
func fillSuggest(d *Diagnostic) {
	if d.Suggest == "" && d.Analyzer != "lintdirective" {
		d.Suggest = fmt.Sprintf("//lint:ignore %s <why this is safe>", d.Analyzer)
	}
}

// Run applies every analyzer to every package, resolves positions,
// filters suppressed findings and non-target packages' findings, runs the
// Finish phase over the accumulated facts, and returns the survivors
// sorted by position. pkgs must come from Load (module-internal
// dependencies present, topologically ordered) for cross-package facts to
// flow correctly. A malformed suppression directive (missing reason) is
// reported as a diagnostic from the pseudo-analyzer "lintdirective" so it
// cannot hide a finding silently. An analyzer listed twice runs once.
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

// suppressionKey identifies one line of one file.
type suppressionKey struct {
	file string
	line int
}

// suppressions maps file:line to the set of analyzer names silenced there.
// The special name "deterministic" (from //lint:deterministic) silences
// maprange only.
type suppressions map[suppressionKey]map[string]bool

func (s suppressions) suppresses(analyzer string, pos token.Position) bool {
	names := s[suppressionKey{pos.Filename, pos.Line}]
	if names[analyzer] {
		return true
	}
	return analyzer == "maprange" && names["deterministic"]
}

// collectSuppressions scans every comment in pkg for lint directives. A
// directive covers its own line and, when it stands alone on a line, the
// line directly below — so it can trail the offending statement or sit
// immediately above it. Directives with no reason are returned as
// diagnostics instead of taking effect. The hotpath/coldpath marker
// directives are parsed here only for reason enforcement; hotalloc reads
// them from function doc comments itself.
func collectSuppressions(pkg *Package) (suppressions, []Diagnostic) {
	sup := make(suppressions)
	var bad []Diagnostic
	for _, f := range pkg.Syntax {
		// Lines that contain non-comment code, to distinguish trailing
		// directives from standalone ones.
		codeLines := make(map[int]bool)
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
			codeLines[pkg.Fset.Position(n.Pos()).Line] = true
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if reason == "" {
					bad = append(bad, Diagnostic{
						Pos:      c.Pos(),
						Message:  fmt.Sprintf("//lint:%s directive needs a reason", name),
						Analyzer: "lintdirective",
						Position: pos,
					})
					continue
				}
				if name == "hotpath" || name == "coldpath" {
					continue // markers, not suppressions; hotalloc consumes them
				}
				lines := []int{pos.Line}
				if !codeLines[pos.Line] {
					lines = append(lines, pos.Line+1)
				}
				for _, line := range lines {
					key := suppressionKey{pos.Filename, line}
					if sup[key] == nil {
						sup[key] = make(map[string]bool)
					}
					sup[key][name] = true
				}
			}
		}
	}
	return sup, bad
}

// parseDirective recognizes the //lint: directive family:
// "//lint:ignore <name> <reason>" returns the target analyzer name;
// "//lint:deterministic <reason>" returns "deterministic" (maprange
// only); "//lint:hotpath <reason>" and "//lint:coldpath <reason>" return
// "hotpath"/"coldpath" — markers for the hotalloc analyzer rather than
// suppressions, but parsed here so the mandatory-reason rule covers them
// too.
func parseDirective(text string) (name, reason string, ok bool) {
	for _, kw := range [...]string{"deterministic", "hotpath", "coldpath"} {
		if strings.HasPrefix(text, "//lint:"+kw) {
			rest := strings.TrimPrefix(text, "//lint:"+kw)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				return "", "", false
			}
			return kw, strings.TrimSpace(rest), true
		}
	}
	if strings.HasPrefix(text, "//lint:ignore") {
		rest := strings.TrimPrefix(text, "//lint:ignore")
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			return "", "", false
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return "ignore", "", true // malformed: no analyzer, no reason
		}
		return fields[0], strings.Join(fields[1:], " "), true
	}
	return "", "", false
}
