package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

func readSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := new(resultSet)
	if err := json.Unmarshal(b, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareFiles prints, for every (workload, end-to-end metric), both
// medians with quartiles, the ratio B/A with its base, and a verdict:
// "worse" when B's median is worse than A's by more than the metric's
// bound, "unresolved" when either side's own run-to-run spread is wider
// than the bound (so the comparison cannot tell), otherwise "ok". It also
// reports whether the digests agree. The error is non-nil if anything is
// worse, any digest differs on equal seeds, or any run failed.
func compareFiles(pathA, pathB string, out io.Writer) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "A %s: commit %s seed %d %s GOMAXPROCS=%d cpu=%q\n",
		pathA, a.Stamp.Commit, a.Seed, a.Stamp.GoVersion, a.Stamp.GOMAXPROCS, a.Stamp.CPUModel)
	fmt.Fprintf(out, "B %s: commit %s seed %d %s GOMAXPROCS=%d cpu=%q\n",
		pathB, b.Stamp.Commit, b.Seed, b.Stamp.GoVersion, b.Stamp.GOMAXPROCS, b.Stamp.CPUModel)

	inB := map[string]*workloadReport{}
	for _, w := range b.Workloads {
		inB[w.Name] = w
	}
	var bad []string
	for _, wa := range a.Workloads {
		wb := inB[wa.Name]
		if wb == nil {
			bad = append(bad, wa.Name+": missing from B")
			continue
		}
		fmt.Fprintf(out, "workload %s\n", wa.Name)
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				bad = append(bad, fmt.Sprintf("%s %s: not measured on both sides", wa.Name, d.Name))
				continue
			}
			verdict := verdictOf(d, ma.summary, mb.summary)
			if verdict == "worse" {
				bad = append(bad, fmt.Sprintf("%s %s: worse", wa.Name, d.Name))
			}
			fmt.Fprintf(out, "  %-24s A %-11.6g [%-11.6g %-11.6g] n %-3d B %-11.6g [%-11.6g %-11.6g] n %-3d B/A %.4f of %-11.6g %-6s %s, bound %.0f%%: %s\n",
				d.Name, ma.Median, ma.Q1, ma.Q3, ma.N, mb.Median, mb.Q1, mb.Q3, mb.N,
				mb.Median/ma.Median, ma.Median, ma.Unit, d.Better, d.Bound*100, verdict)
		}
		if a.Seed == b.Seed {
			same := strings.Join(wa.Digests, ",") == strings.Join(wb.Digests, ",")
			fmt.Fprintf(out, "  digests equal: %v\n", same)
			if !same {
				bad = append(bad, wa.Name+": digests differ on the same seed")
			}
		}
		if n := wa.Failed + wb.Failed; n > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d failed runs", wa.Name, n))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("compare: %s", strings.Join(bad, "; "))
	}
	return nil
}

func verdictOf(d metricDef, a, b summary) string {
	if a.spread() > d.Bound || b.spread() > d.Bound {
		return "unresolved"
	}
	change := b.Median/a.Median - 1 // positive means B is larger
	if d.Better == "higher" {
		change = -change
	}
	if change > d.Bound {
		return "worse"
	}
	return "ok"
}
