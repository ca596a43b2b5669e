// Matching: a standalone walk through the paper's theory, no packet
// simulation involved. It reruns Figure 1's 4×4 PIM example, then
// demonstrates Theorem 1 numerically: on sparse graphs, a constant number
// of rounds reaches almost the converged matching size, independent of n.
// Every matcher is resolved by name from internal/matching's table, the
// same one `experiments -run matchers` sweeps.
package main

import (
	"fmt"
	"math/rand"

	"dcpim/internal/matching"
)

func must(m matching.Matcher, err error) matching.Matcher {
	if err != nil {
		panic(err)
	}
	return m
}

func main() {
	// ---- Figure 1's example ----
	// Inputs (senders): blue(0)→{1,3,4}, red(1)→{2,4}, green(2)→{1},
	// yellow(3)→{1,3}; outputs 1..4 are receivers 0..3 here.
	g, err := matching.NewGraph(4, 4, [][]int{{0, 2, 3}, {1, 3}, {0}, {0, 2}})
	if err != nil {
		panic(err)
	}
	names := []string{"blue", "red", "green", "yellow"}
	pim := must(matching.MustLookup("pim").New(matching.Options{}))
	m, st := pim.Match(g, rand.New(rand.NewSource(3)))
	fmt.Println("Figure 1 example, PIM run to convergence (registry matcher \"pim\"):")
	for s, r := range m.ReceiverOf {
		if r >= 0 {
			fmt.Printf("  %-6s matched to output %d\n", names[s], r+1)
		} else {
			fmt.Printf("  %-6s unmatched\n", names[s])
		}
	}
	fmt.Printf("  matching size %d in %d rounds, %d control messages\n", m.Size(), st.Rounds, st.Msgs)
	fmt.Println("  (the paper's walkthrough lands on 3; other random choices,")
	fmt.Println("  like this seed's, reach the perfect matching of 4)")
	fmt.Println()

	// ---- Theorem 1, numerically ----
	// δ̄ = 5 across three network sizes: the fraction of M* reached after
	// r rounds is essentially independent of n.
	fmt.Println("Theorem 1: matched fraction of M* after r rounds (avg degree 5):")
	fmt.Printf("  %-8s", "n")
	for _, r := range []int{1, 2, 3, 4} {
		fmt.Printf("  r=%-6d", r)
	}
	fmt.Printf("  bound(r=4)\n")
	for _, n := range []int{256, 1024, 4096} {
		fmt.Printf("  %-8d", n)
		rng := rand.New(rand.NewSource(int64(n)))
		g := matching.SparseRandomGraph(rng, n, n, 5)
		ref, _ := pim.Match(g, rand.New(rand.NewSource(1)))
		mStar := ref.Size()
		for _, r := range []int{1, 2, 3, 4} {
			bounded := must(matching.MustLookup("dcpim").New(matching.Options{Rounds: r}))
			mr, _ := bounded.Match(g, rand.New(rand.NewSource(2)))
			fmt.Printf("  %-8.3f", float64(mr.Size())/float64(mStar))
		}
		alpha := float64(n) / float64(mStar)
		fmt.Printf("  %.3f\n", matching.TheoremBound(g.AvgDegree(), alpha, 4))
	}

	// ---- Multi-channel matching (§3.4) ----
	// With per-edge demand of one channel (flows barely above 1 BDP),
	// k channels admit k× more concurrent pairs. Stats.MatchedChannels
	// carries the b-matching's channel count alongside the projected
	// unit matching.
	fmt.Println("\nMulti-channel matching with unit demands (144 hosts, avg degree 4):")
	rng := rand.New(rand.NewSource(9))
	g2 := matching.SparseRandomGraph(rng, 144, 144, 4)
	for _, k := range []int{1, 2, 4} {
		km := must(matching.MustLookup("dcpim-k").New(matching.Options{
			Rounds: 4, K: k,
			Demand: func(s, r int) int { return 1 },
		}))
		_, kst := km.Match(g2, rand.New(rand.NewSource(5)))
		fmt.Printf("  k=%d: %3d matched sender-receiver pairs\n", k, kst.MatchedChannels)
	}

	// ---- The budget frontier ----
	// The communication-budget matcher trades control bits for rounds:
	// at 25% of an unconstrained round's bits it still converges, just
	// more slowly.
	fmt.Println("\nCommunication-budget matching (budget-pim, 1024 hosts, δ̄=4):")
	g3 := matching.SparseRandomGraph(rand.New(rand.NewSource(17)), 1024, 1024, 4)
	full := 3 * float64(g3.Edges()) * matching.ControlMsgBits
	for _, frac := range []float64{0, 0.25, 0.05} {
		bm := must(matching.MustLookup("budget-pim").New(matching.Options{BudgetBits: frac * full}))
		m3, st3 := bm.Match(g3, rand.New(rand.NewSource(23)))
		label := "unlimited"
		if frac > 0 {
			label = fmt.Sprintf("%2.0f%% budget", frac*100)
		}
		fmt.Printf("  %-10s: size %4d in %2d rounds, %6d control msgs\n",
			label, m3.Size(), st3.Rounds, st3.Msgs)
	}
}
