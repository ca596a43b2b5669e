package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// designHeading matches a numbered DESIGN.md heading ("## 14. …",
// "### 11.2 …", "#### 8.1.1 …") and captures its number.
var designHeading = regexp.MustCompile(`(?m)^#+\s+(\d+(?:\.\d+)*)\.?\s`)

// designCitation matches "DESIGN.md §N[.M…]" or "DESIGN §N…", also when
// a line break, and a Go comment's "//", falls between the two words.
var designCitation = regexp.MustCompile(`DESIGN(?:\.md)?\s+(?://\s*)?§(\d+(?:\.\d+)*)`)

// rootDocs are the standing documents at the top of the repository.
var rootDocs = map[string]bool{
	"CONTRIBUTING.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true,
	"PAPER.md": true, "PAPERS.md": true, "README.md": true,
	"ROADMAP.md": true, "SNIPPETS.md": true,
}

// TestDesignCitationsResolve requires every DESIGN.md section that a Go
// file, a Markdown file or the CI workflow cites to be a heading of
// DESIGN.md, so that renumbering or cutting a section cannot leave a
// citation pointing nowhere. At the top of the repository only the
// standing documents in rootDocs are read: CHANGES.md is history and
// may cite sections that have since moved, and a note about a change
// still in hand may cite a section that the change deletes. A new
// standing document at the top goes into rootDocs.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		headings[m[1]] = true
	}
	files := []string{filepath.Join(".github", "workflows", "ci.yml")}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build"):
			return filepath.SkipDir
		case d.IsDir():
		case strings.HasSuffix(path, ".go"),
			strings.HasSuffix(path, ".md") && (strings.ContainsRune(path, filepath.Separator) || rootDocs[path]):
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cited := 0
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range designCitation.FindAllStringSubmatchIndex(string(b), -1) {
			cited++
			if sec := string(b[m[2]:m[3]]); !headings[sec] {
				line := 1 + strings.Count(string(b[:m[0]]), "\n")
				t.Errorf("%s:%d cites DESIGN.md §%s, which is not a heading of DESIGN.md", path, line, sec)
			}
		}
	}
	if cited == 0 {
		t.Fatal("found no DESIGN.md citations: the pattern or the walk is broken")
	}
}

// namingDocs are the standing documents whose backticked names must be
// declared in the module. ROADMAP.md and CHANGES.md name deleted
// identifiers on purpose and are not read.
var namingDocs = []string{"CONTRIBUTING.md", "DESIGN.md", "EXPERIMENTS.md", "README.md"}

// docSpan matches a backticked span of a Markdown file; fencedBlock a
// fenced code block, whose backticks are not spans.
var (
	docSpan     = regexp.MustCompile("`([^`]+)`")
	fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")
	dottedName  = regexp.MustCompile(`^[A-Za-z]\w*(\.[A-Za-z]\w*)+$`)
	fileName    = regexp.MustCompile(`\.(go|md|json|txt|csv|yml|sh|dcpimck)$`)
)

// moduleDecls is what the module's Go files declare: per package name,
// its package-level identifiers; per type name, its fields (embedded
// ones by their type's name) and methods; and the standard-library
// packages the module imports, whose qualifiers name no module
// identifier.
type moduleDecls struct {
	pkgs   map[string]map[string]bool
	types  map[string]map[string]bool
	stdlib map[string]bool
}

// parseModule parses every Go file of the module rooted at the working
// directory, test files included, and skips nested modules.
func parseModule(t *testing.T) moduleDecls {
	d := moduleDecls{pkgs: map[string]map[string]bool{}, types: map[string]map[string]bool{}, stdlib: map[string]bool{}}
	member := func(typ, name string) {
		if d.types[typ] == nil {
			d.types[typ] = map[string]bool{}
		}
		d.types[typ][name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if d.pkgs[pkg] == nil {
			d.pkgs[pkg] = map[string]bool{}
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); !strings.Contains(strings.SplitN(p, "/", 2)[0], ".") && !strings.HasPrefix(p, "dcpim") {
				d.stdlib[p[strings.LastIndex(p, "/")+1:]] = true
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.pkgs[pkg][decl.Name.Name] = true
				} else {
					member(typeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.pkgs[pkg][n.Name] = true
						}
					case *ast.TypeSpec:
						name := spec.Name.Name
						d.pkgs[pkg][name] = true
						member(name, "") // declared, even with no members
						fields := &ast.FieldList{}
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						for _, fld := range fields.List {
							if len(fld.Names) == 0 {
								member(name, typeName(fld.Type))
							}
							for _, n := range fld.Names {
								member(name, n.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// typeName is the base name of a receiver or embedded type: T for T,
// *T, pkg.T and T[P].
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// unresolved returns why a backticked span names nothing the module
// declares, or "" when it resolves or is not a Go name this checks.
// A span is read as a dotted name, a trailing call's arguments cut off:
// pkg.X needs X declared at package level in a module package pkg,
// Type.x needs x a field or method of a declared type, and pkg.Type.x
// both. Spans with an underscore (metric and file names), file names,
// standard-library qualifiers and three-segment spans whose middle is
// not a type (sim.group.speedup) are not Go names and are skipped.
func (d moduleDecls) unresolved(span string) string {
	if i := strings.IndexByte(span, '('); i > 0 && strings.HasSuffix(span, ")") {
		span = span[:i]
	}
	if strings.Contains(span, "_") || fileName.MatchString(span) || !dottedName.MatchString(span) {
		return ""
	}
	seg := strings.Split(span, ".")
	decls, isPkg := d.pkgs[seg[0]]
	switch {
	case d.stdlib[seg[0]] && !isPkg:
		return ""
	case isPkg && len(seg) == 2:
		if !decls[seg[1]] {
			return "package " + seg[0] + " declares no " + seg[1]
		}
	case isPkg && len(seg) == 3:
		if d.types[seg[1]] == nil {
			return ""
		}
		if !decls[seg[1]] {
			return "package " + seg[0] + " declares no type " + seg[1]
		}
		if !d.types[seg[1]][seg[2]] {
			return "type " + seg[1] + " has no field or method " + seg[2]
		}
	case !isPkg && len(seg) == 2 && d.types[seg[0]] != nil:
		if !d.types[seg[0]][seg[1]] {
			return "type " + seg[0] + " has no field or method " + seg[1]
		}
	}
	return ""
}

// TestDocsNameDeclaredIdentifiers requires every Go name a standing
// document puts in backticks (pkg.X, Type.x, pkg.Type.x) to be declared
// in the module, so that a rename or a deletion cannot leave the docs
// describing code that is not there.
func TestDocsNameDeclaredIdentifiers(t *testing.T) {
	d := parseModule(t)
	for _, pkg := range []string{"sim", "netsim", "experiments", "matching"} {
		if len(d.pkgs[pkg]) == 0 {
			t.Fatalf("parsed no declarations of package %s: the walk is broken", pkg)
		}
	}
	for _, doc := range namingDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fencedBlock.ReplaceAllStringFunc(string(b), func(s string) string {
			return strings.Repeat("\n", strings.Count(s, "\n"))
		})
		for _, m := range docSpan.FindAllStringSubmatchIndex(text, -1) {
			span := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
			if why := d.unresolved(span); why != "" {
				line := 1 + strings.Count(text[:m[0]], "\n")
				t.Errorf("%s:%d names `%s`: %s", doc, line, span, why)
			}
		}
	}
}
