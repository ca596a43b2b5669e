package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
