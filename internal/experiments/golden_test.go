package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dcpim/internal/stats"
)

// regenerate is the one command that rewrites every golden file; a
// deliberate change commits the files it writes, and the diff is the
// review.
const regenerate = "DCPIM_REGEN=1 go test ./internal/experiments"

// golden compares got with testdata/<name>, line by line, or writes got
// there when DCPIM_REGEN is set. Every pinned output of the package — the
// quick reports, the checkpoint fixture and the run summaries under
// testdata/golden — goes through it, so one command regenerates them all.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("DCPIM_REGEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with %s): %v", regenerate, err)
	}
	if diff := diffLines(want, got); len(diff) > 0 {
		const show = 40
		n, more := len(diff), ""
		if n > show {
			more = fmt.Sprintf("\n… and %d more", n-show)
			diff = diff[:show]
		}
		t.Errorf("%s: %d lines differ from this run (if the change is deliberate: %s):\n%s%s",
			path, n, regenerate, strings.Join(diff, "\n"), more)
	}
}

// diffLines lists every line on which want and got differ, by line
// number, as golden prints them; nil when they are equal.
func diffLines(want, got []byte) []string {
	a, b := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	from := func(s []string, i int) []string { return s[min(i, len(s)):] }
	var out []string
	for i := firstDiff(a, b); i >= 0; {
		out = append(out, fmt.Sprintf("line %d: want %q, got %q", i+1, line(a, i), line(b, i)))
		next := firstDiff(from(a, i+1), from(b, i+1))
		if next < 0 {
			break
		}
		i += 1 + next
	}
	return out
}

// sameSummary requires got to equal want, the summary or CSV of the run
// it must reproduce, and names each line that differs.
func sameSummary(t *testing.T, what string, want, got []byte) {
	t.Helper()
	if d := diffLines(want, got); len(d) > 0 {
		t.Errorf("%s differs:\n%s", what, strings.Join(d, "\n"))
	}
}

// summaryBuckets is how many lines the per-flow table is hashed into.
const summaryBuckets = 64

// summary renders a run as the text its golden file holds: the
// delivered-stream digest, completions and delivered bytes, one line per
// size class, every counter's end-of-run value, and the per-flow
// (id, size, fct) table hashed into summaryBuckets lines. A flow lands in
// the bucket its id hashes to, so a change to one flow moves one bucket
// line. Gauges are left out: there is one per port.
func summary(res RunResult, bdp int64) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "digest %#016x\n", res.Digest)
	fmt.Fprintf(&b, "completed %d of %d flows\n", len(res.Records), res.Started)
	fmt.Fprintf(&b, "delivered %d of %d bytes\n", res.Col.DeliveredBytes(), res.Offered)
	for _, c := range stats.BucketSlowdowns(res.Records, stats.DefaultBuckets(bdp)) {
		fmt.Fprintf(&b, "class %s %s\n", c.Label, c.Summary)
	}
	counters, _ := res.Col.Values()
	for _, c := range counters {
		fmt.Fprintf(&b, "counter %s %d\n", c.Name, c.Value)
	}
	var flows, fctSum [summaryBuckets]int64
	var hash [summaryBuckets]uint64
	for i := range hash {
		hash[i] = fnvOffset
	}
	for _, r := range res.Records {
		k := flowBucket(r)
		flows[k]++
		fctSum[k] += int64(r.FCT())
		hash[k] = fnvMix(fnvMix(fnvMix(hash[k], r.ID), uint64(r.Size)), uint64(r.FCT()))
	}
	for k := range hash {
		fmt.Fprintf(&b, "bucket %02d flows %d fct_sum_ps %d hash %#016x\n", k, flows[k], fctSum[k], hash[k])
	}
	return b.Bytes()
}

// flowBucket is the summary line a flow's record is folded into.
func flowBucket(r stats.FlowRecord) int { return int(fnvMix(fnvOffset, r.ID) % summaryBuckets) }

// TestSummaryNamesTheChangedFlow: moving one flow's finish by a single
// picosecond in the clean dcPIM run changes its bucket's line, and no
// other bucket line, in the diff golden prints.
func TestSummaryNamesTheChangedFlow(t *testing.T) {
	spec := goldenSpec(t, DCPIM, false)
	res := Run(spec)
	bdp := spec.Topo.BDP()
	want := summary(res, bdp)
	if len(res.Records) == 0 {
		t.Fatal("the clean run completed no flow")
	}
	res.Records = slices.Clone(res.Records)
	r := &res.Records[len(res.Records)/2]
	r.Finish++
	bucket := fmt.Sprintf("bucket %02d ", flowBucket(*r))
	diff := diffLines(want, summary(res, bdp))
	named := false
	for _, d := range diff {
		switch {
		case strings.Contains(d, `"`+bucket):
			named = true
		case strings.Contains(d, `"bucket `):
			t.Errorf("flow %d is in %q, but another bucket line moved: %s", r.ID, bucket, d)
		}
	}
	if !named {
		t.Errorf("flow %d finished 1 ps later and its line %q did not move; diff:\n%s", r.ID, bucket, strings.Join(diff, "\n"))
	}
}
