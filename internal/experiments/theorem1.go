package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"dcpim/internal/matching"
)

// RunTheorem1 validates the paper's core theory result on random sparse
// bipartite graphs: after r rounds, PIM-style matching reaches at least a
// (1 − δ̄α/4^r) fraction of the converged matching size M*. The table
// prints the measured fraction next to the bound for each r; the paper's
// worked example is its row in targets.
func RunTheorem1(o Options, w io.Writer) error {
	n := 1024
	if o.Hosts != 0 {
		n = o.Hosts
	}
	trials := 20
	if o.Scale < 1 && o.Scale > 0 {
		trials = 5
	}

	fmt.Fprintf(w, "Theorem 1 validation: n=%d random bipartite graphs, %d trials/row\n\n", n, trials)
	tbl := newTable("avg-degree", "rounds", "measured M/M*", "theorem bound", "holds")
	tbl.keys = 2
	// "pim" is the converged M* reference, "dcpim" the bounded-round
	// Theorem 1 regime.
	mStarMatcher, err := matching.MustLookup("pim").New(matching.Options{})
	if err != nil {
		return err
	}
	for _, deg := range []float64{2, 5, 10} {
		for _, r := range []int{1, 2, 3, 4, 6} {
			bounded, err := matching.MustLookup("dcpim").New(matching.Options{Rounds: r})
			if err != nil {
				return err
			}
			var fracSum, boundSum float64
			holds := true
			for trial := 0; trial < trials; trial++ {
				rng := rand.New(rand.NewSource(o.Seed + int64(trial) + int64(1000*r) + int64(deg)))
				g := matching.RandomGraph(rng, n, n, deg)
				ref, _ := mStarMatcher.Match(g, rand.New(rand.NewSource(o.Seed+int64(trial))))
				mStar := ref.Size()
				if mStar == 0 {
					continue
				}
				alpha := float64(n) / float64(mStar)
				mm, _ := bounded.Match(g, rng)
				m := mm.Size()
				frac := float64(m) / float64(mStar)
				bound := matching.TheoremBound(g.AvgDegree(), alpha, r)
				fracSum += frac
				boundSum += bound
			}
			meanFrac := fracSum / float64(trials)
			meanBound := boundSum / float64(trials)
			// Both sides are Monte-Carlo estimates (M* itself comes from
			// one converged run per trial); allow 1% estimator noise when
			// the bound approaches 1.
			if meanFrac < meanBound-0.01 {
				holds = false
			}
			tbl.add(deg, r, meanFrac, meanBound, holds)
		}
	}
	tbl.write(w)
	return writeTargets(w, o, "theorem1", tbl)
}
