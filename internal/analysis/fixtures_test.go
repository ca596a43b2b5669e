package analysis

import (
	"regexp"
	"strconv"
	"testing"
)

// wantRE finds the `want` keyword in fixture comments; quotedRE then
// collects every `"regex"` that follows it, so one comment can expect
// several diagnostics on its line (`// want "a" "b"`). Each quoted
// pattern is a Go string literal, so regex metacharacters needing
// backslashes must be double-escaped.
var (
	wantRE   = regexp.MustCompile(`\bwant\s+(".*)$`)
	quotedRE = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)
)

// runFixtures loads patterns from the fixture module rooted at dir
// (conventionally testdata/src), runs dcpimlint, and checks its
// diagnostics against `// want "regex"` comments in the fixture sources.
// Every diagnostic must match a want on its line and every want must be
// matched; directive diagnostics (malformed //lint: comments) participate
// so fixtures can assert on them too. Suppression runs first, so a
// fixture line carrying //lint:ignore and no want asserts the directive
// works. Wants are read from every loaded package, dependencies
// included: a hot root reaches across package boundaries, and so do its
// findings.
func runFixtures(t *testing.T, dir string, patterns ...string) {
	t.Helper()
	pkgs, err := load(dir, patterns...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	diags := run(pkgs)

	type expectation struct {
		re  *regexp.Regexp
		hit bool
	}
	type lineKey struct {
		file string
		line int
	}
	wants := make(map[lineKey][]*expectation)
	for _, pkg := range pkgs {
		for _, f := range pkg.files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					for _, quoted := range quotedRE.FindAllString(m[1], -1) {
						pattern, err := strconv.Unquote(quoted)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v",
								pkg.fset.Position(c.Pos()), quoted, err)
						}
						re, err := regexp.Compile(pattern)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v",
								pkg.fset.Position(c.Pos()), pattern, err)
						}
						pos := pkg.fset.Position(c.Pos())
						key := lineKey{pos.Filename, pos.Line}
						wants[key] = append(wants[key], &expectation{re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		key := lineKey{d.Position.Filename, d.Position.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.hit && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %v", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none",
					key.file, key.line, w.re)
			}
		}
	}
}
