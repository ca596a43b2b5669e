// Command dcpimlint runs the repo's determinism, ownership and hot-path
// analyzers (internal/analysis, DESIGN.md §12, §17) over the given
// package patterns and exits nonzero on any unsuppressed finding, so CI
// can gate on it:
//
//	go run ./cmd/dcpimlint ./...
//
// Each finding prints with the directive that would accept it
// (`accept with: //lint:ignore <analyzer> <reason>`, or the
// analyzer-specific forms //lint:deterministic, //lint:coldpath); the
// reason is always mandatory, and nothing is edited. `-json` emits the
// findings as JSON for CI artifacts. Exit status: 0 clean, 1 findings,
// 2 usage or load error — including a pattern that matches no package
// of the module.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dcpim/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as JSON on stdout")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dcpimlint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := analysis.Analyzers()
	if *only != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*only, ",") {
			if name = strings.TrimSpace(name); name == "" {
				continue
			}
			a := analysis.ByName(name)
			if a == nil {
				fail(fmt.Errorf("unknown analyzer %q (use -list)", name))
			}
			analyzers = append(analyzers, a)
		}
		if len(analyzers) == 0 {
			fail(fmt.Errorf("-only %q names no analyzer", *only))
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	diags, err := analysis.RunDir(wd, analyzers, patterns...)
	if err != nil {
		fail(err)
	}

	if *jsonOut {
		out := struct {
			Findings []analysis.Diagnostic `json:"findings"`
		}{Findings: diags}
		if out.Findings == nil {
			out.Findings = []analysis.Diagnostic{} // emit [], not null
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
			if d.Suggest != "" {
				fmt.Printf("\taccept with: %s\n", d.Suggest)
			}
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "dcpimlint: %v\n", err)
	os.Exit(2)
}
