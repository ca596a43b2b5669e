// Command dcpimlint runs the repo's hot-path allocation analyzer,
// hotalloc (internal/analysis, DESIGN.md §17), over the given package
// patterns and exits nonzero on any unsuppressed finding, so CI can gate
// on it:
//
//	go run ./cmd/dcpimlint ./...
//
// Each finding prints with the directive that would accept it
// (`accept with: //lint:ignore hotalloc <reason>`, or //lint:coldpath on
// the containing function); the reason is always mandatory, and nothing
// is edited. A //lint: comment the suite does not read is a finding too.
// Exit status: 0 clean, 1 findings, 2 usage or load error — including a
// pattern that matches no package of the module.
package main

import (
	"flag"
	"fmt"
	"os"

	"dcpim/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: dcpimlint [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	diags, err := analysis.RunDir(wd, analysis.Analyzers(), patterns...)
	if err != nil {
		fail(err)
	}
	for _, d := range diags {
		fmt.Println(d)
		if d.Suggest != "" {
			fmt.Printf("\taccept with: %s\n", d.Suggest)
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
