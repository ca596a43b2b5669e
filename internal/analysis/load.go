package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// A Package is one type-checked package ready for analysis: the loaded
// equivalent of x/tools' packages.Package, restricted to what the
// analyzers need.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info

	// Target reports whether the package matched the load patterns.
	// Non-target packages are module-internal dependencies, loaded so
	// their analyses can export facts; their own diagnostics are
	// discarded.
	Target bool
}

// listedPackage mirrors the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	Imports    []string
	Match      []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }
}

// Load resolves patterns relative to dir (a directory inside the target
// module) via `go list -export -deps`, then parses and type-checks the
// matched packages plus their module-internal dependency closure, in
// topological order (dependencies first, lexicographic among ready
// packages, so fact and diagnostic production is deterministic). Matched
// packages have Target set; dependency-only packages participate in
// analysis for their facts but their diagnostics are discarded by Run.
// Dependencies outside the module (the standard library) are imported
// from compiler export data, never from source. A pattern that matches
// no package of the module is an error, so a mistyped or out-of-module
// pattern cannot pass the gate by analyzing nothing.
//
// Test files are host-side code and are not loaded; the hot paths live
// in package GoFiles.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	// The root module is whichever module the matched packages live in.
	var rootMod string
	for _, p := range listed {
		if !p.DepOnly && p.Module != nil {
			rootMod = p.Module.Path
			break
		}
	}

	exports := make(map[string]string)
	byPath := make(map[string]*listedPackage)
	matched := make(map[string]bool)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		internal := !p.Standard && p.Module != nil && rootMod != "" && p.Module.Path == rootMod
		if p.Error != nil {
			if !p.DepOnly || internal {
				return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
			}
			continue
		}
		if !internal || p.Name == "" {
			continue
		}
		byPath[p.ImportPath] = p
		if !p.DepOnly {
			for _, m := range p.Match {
				matched[m] = true
			}
		}
	}
	for _, pat := range patterns {
		if !matched[cleanPattern(pat)] {
			return nil, fmt.Errorf("pattern %s matched no package of the module in %s", pat, dir)
		}
	}

	// Keep only module-internal import edges: the edges facts flow along.
	for _, p := range byPath {
		var mod []string
		for _, imp := range p.Imports {
			if _, ok := byPath[imp]; ok {
				mod = append(mod, imp)
			}
		}
		p.Imports = mod
	}
	order, err := topoSort(byPath)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	conf := &types.Config{
		Importer: importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
			f, ok := exports[ip]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", ip)
			}
			return os.Open(f)
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
	}
	pkgs := make([]*Package, 0, len(order))
	for _, p := range order {
		pkg, err := check(fset, conf, p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// cleanPattern puts a pattern in the canonical form `go list` reports in
// Match: path-cleaned, with a leading "./" preserved.
func cleanPattern(p string) string {
	if !strings.HasPrefix(p, "./") {
		return path.Clean(p)
	}
	if p = "./" + path.Clean(p); p == "./." {
		return "."
	}
	return p
}

func topoSort(byPath map[string]*listedPackage) ([]*listedPackage, error) {
	indeg := make(map[string]int, len(byPath))
	rdeps := make(map[string][]string, len(byPath))
	for ip, p := range byPath {
		indeg[ip] += 0
		for _, imp := range p.Imports {
			indeg[ip]++
			rdeps[imp] = append(rdeps[imp], ip)
		}
	}
	var ready []string
	for ip, d := range indeg {
		if d == 0 {
			ready = append(ready, ip)
		}
	}
	sort.Strings(ready)
	var out []*listedPackage
	for len(ready) > 0 {
		ip := ready[0]
		ready = ready[1:]
		out = append(out, byPath[ip])
		for _, rd := range rdeps[ip] {
			if indeg[rd]--; indeg[rd] == 0 {
				ready = append(ready, rd)
			}
		}
		sort.Strings(ready)
	}
	if len(out) != len(byPath) {
		return nil, fmt.Errorf("import cycle among module packages")
	}
	return out, nil
}

// check parses and type-checks one listed package.
func check(fset *token.FileSet, conf *types.Config, p *listedPackage) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		full := filepath.Join(p.Dir, name)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", full, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
	}
	return &Package{
		ImportPath: p.ImportPath,
		Fset:       fset,
		Syntax:     files,
		Types:      tpkg,
		TypesInfo:  info,
		Target:     !p.DepOnly,
	}, nil
}

// goList runs `go list -e -export -json -deps patterns...` in dir and
// decodes the JSON stream. GOPROXY is forced off: the linter must load
// from local sources and the build cache only, never the network.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var out []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}
