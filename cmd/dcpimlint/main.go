// Command dcpimlint checks the repo's zero-allocation hot paths
// (internal/analysis, DESIGN.md §17) over the given package patterns and
// exits nonzero on any unsuppressed finding, so CI can gate on it:
//
//	go run ./cmd/dcpimlint ./...
//
// It loads the matched packages and their module-internal dependencies
// in one pass and reports every allocation site reachable from a
// //lint:hotpath function, wherever in the module the site lies. Each
// finding prints with the directive that would accept it
// (`accept with: //lint:ignore hotalloc <reason>`, or //lint:coldpath on
// the containing function); the reason is always mandatory, and nothing
// is edited. A //lint: comment other than those three, or one without a
// reason, is a finding too. dcpimlint has no flags.
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
	diags, err := analysis.RunDir(wd, patterns...)
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
