package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseFixtureSimple(t *testing.T, src string) *srcPkg {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &srcPkg{fset: fset, files: []*ast.File{f}}
}

func TestParseDirective(t *testing.T) {
	cases := []struct {
		text                      string
		keyword, analyzer, reason string
		ok                        bool
	}{
		{"//lint:ignore hotalloc pre-grown capacity", "ignore", "hotalloc", "pre-grown capacity", true},
		{"//lint:ignore hotalloc", "ignore", "hotalloc", "", true},
		{"//lint:ignore", "ignore", "", "", true},
		{"//lint:hotpath per-packet handler", "hotpath", "", "per-packet handler", true},
		{"//lint:coldpath", "coldpath", "", "", true},
		{"//lint:deterministic int sum", "deterministic", "", "int sum", true},
		{"//lint:ignored not a directive", "ignored", "", "not a directive", true},
		{"//lint:", "", "", "", true},
		{"// plain comment", "", "", "", false},
		{"// see //lint:hotpath", "", "", "", false},
	}
	for _, c := range cases {
		keyword, analyzer, reason, ok := parseDirective(c.text)
		if keyword != c.keyword || analyzer != c.analyzer || reason != c.reason || ok != c.ok {
			t.Errorf("parseDirective(%q) = %q, %q, %q, %v; want %q, %q, %q, %v",
				c.text, keyword, analyzer, reason, ok, c.keyword, c.analyzer, c.reason, c.ok)
		}
	}
}

func TestCollectSuppressions(t *testing.T) {
	src := `package p

func f() {
	//lint:ignore hotalloc standalone covers the next line
	x := 1
	y := 2 //lint:ignore hotalloc trailing covers its own line
	_ = x
	_ = y
	//lint:ignore hotalloc
	_ = 3
}
`
	pkg := parseFixtureSimple(t, src)
	sup, bad := collectSuppressions(pkg)

	if !sup.suppresses("hotalloc", token.Position{Filename: "fixture.go", Line: 5}) {
		t.Errorf("standalone directive should cover the following line")
	}
	if !sup.suppresses("hotalloc", token.Position{Filename: "fixture.go", Line: 6}) {
		t.Errorf("trailing directive should cover its own line")
	}
	if sup.suppresses("hotalloc", token.Position{Filename: "fixture.go", Line: 7}) {
		t.Errorf("directive must not leak to unrelated lines")
	}
	if sup.suppresses("factprobe", token.Position{Filename: "fixture.go", Line: 5}) {
		t.Errorf("directive must be analyzer-specific")
	}
	if len(bad) != 1 {
		t.Fatalf("want 1 malformed-directive diagnostic, got %d: %v", len(bad), bad)
	}
	if bad[0].Analyzer != "lintdirective" || bad[0].Position.Line != 9 {
		t.Errorf("malformed directive diagnostic = %v; want lintdirective at line 9", bad[0])
	}
	// The reasonless directive must not take effect.
	if sup.suppresses("hotalloc", token.Position{Filename: "fixture.go", Line: 10}) {
		t.Errorf("directive without a reason must not suppress")
	}
}

// TestUnknownDirectivesAreFindings pins that a //lint: comment the suite
// does not read — one left behind by a deleted analyzer, or a misspelt
// analyzer name — is a finding and suppresses nothing, even with a reason.
func TestUnknownDirectivesAreFindings(t *testing.T) {
	src := `package p

//lint:hotpath a marker the suite reads
func f() {
	//lint:ignore wallclock x
	_ = 1
	//lint:deterministic x
	_ = 2
	//lint:ignore hotaloc x
	_ = 3
	_ = 4 //lint:ignore hotalloc an ignore the suite reads
}

//lint:coldpath a marker the suite reads
func g() {}
`
	pkg := parseFixtureSimple(t, src)
	sup, bad := collectSuppressions(pkg)
	wantLines := []int{5, 7, 9}
	if len(bad) != len(wantLines) {
		t.Fatalf("got %d directive diagnostics, want %d (lines %v): %v", len(bad), len(wantLines), wantLines, bad)
	}
	for i, d := range bad {
		if d.Analyzer != "lintdirective" || d.Position.Line != wantLines[i] ||
			!strings.Contains(d.Message, "unknown directive") {
			t.Errorf("diagnostic %d = %v; want an unknown-directive finding at line %d", i, d, wantLines[i])
		}
	}
	if len(sup) != 1 || !sup.suppresses("hotalloc", token.Position{Filename: "fixture.go", Line: 11}) {
		t.Errorf("suppressions = %v; want only hotalloc at line 11", sup)
	}
}
