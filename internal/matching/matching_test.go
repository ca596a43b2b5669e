package matching

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(2, 2, [][]int{{0}}); err == nil {
		t.Error("accepted wrong row count")
	}
	if _, err := NewGraph(1, 2, [][]int{{5}}); err == nil {
		t.Error("accepted out-of-range receiver")
	}
	if _, err := NewGraph(1, 2, [][]int{{1, 1}}); err == nil {
		t.Error("accepted duplicate edge")
	}
	g, err := NewGraph(2, 2, [][]int{{0, 1}, {1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 3 || g.AvgDegree() != 1.5 {
		t.Fatalf("edges=%d avg=%v", g.Edges(), g.AvgDegree())
	}
}

func TestDenseGraph(t *testing.T) {
	g := DenseGraph(4, 5)
	if g.Edges() != 20 || g.AvgDegree() != 5 {
		t.Fatalf("dense: edges=%d avg=%v", g.Edges(), g.AvgDegree())
	}
}

// Figure 1's example: 4 inputs × 4 outputs. Blue(0)→{1,3,4}, Red(1)→{2,4},
// Green(2)→{1}, Yellow(3)→{1,3} (0-indexed: 0→{0,2,3}, 1→{1,3}, 2→{0},
// 3→{0,2}). PIM must converge to a maximal matching of size 3
// (output 3 / receiver index 3 can only pair with senders 0 or 1, and
// senders 2,3 compete for {0,2}).
func TestPIMFigure1Example(t *testing.T) {
	g, err := NewGraph(4, 4, [][]int{{0, 2, 3}, {1, 3}, {0}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		m := runPIM(g, convergenceRounds(g), rand.New(rand.NewSource(seed)), nil)
		if !m.Valid(g) {
			t.Fatal("invalid matching")
		}
		if m.Size() < 3 {
			t.Fatalf("seed %d: converged size %d, want ≥3", seed, m.Size())
		}
	}
}

func TestPIMZeroRounds(t *testing.T) {
	g := DenseGraph(3, 3)
	m := runPIM(g, 0, rand.New(rand.NewSource(1)), nil)
	if m.Size() != 0 || !m.Valid(g) {
		t.Fatal("0-round PIM must be an empty valid matching")
	}
}

func TestPIMPerfectMatchingOnPermutation(t *testing.T) {
	// Permutation graph (degree 1): PIM matches everyone in 1 round.
	adj := make([][]int, 64)
	for i := range adj {
		adj[i] = []int{(i * 7) % 64}
	}
	g, _ := NewGraph(64, 64, adj)
	m := runPIM(g, 1, rand.New(rand.NewSource(2)), nil)
	if m.Size() != 64 {
		t.Fatalf("permutation matching size = %d, want 64", m.Size())
	}
}

func TestPIMMaximality(t *testing.T) {
	// After convergence, no edge may connect two unmatched nodes.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		g := SparseRandomGraph(rng, 100, 100, 3)
		m := runPIM(g, convergenceRounds(g), rng, nil)
		if !m.Valid(g) {
			t.Fatal("invalid matching")
		}
		for s, rs := range g.Adj {
			if m.ReceiverOf[s] >= 0 {
				continue
			}
			for _, r := range rs {
				if m.SenderOf[r] < 0 {
					t.Fatalf("trial %d: edge (%d,%d) both unmatched — not maximal", trial, s, r)
				}
			}
		}
	}
}

// Theorem 1 (the paper's core theory): after r rounds, the expected
// matching size is at least (1 − δ̄α/4^r)·M*. Instead of a few worked
// cells, sample the whole (n, δ̄, α, r) space: random graph sizes and
// densities give random realized (δ̄, α), and every sampled configuration
// must satisfy the bound on its trial-averaged matching size. The bound
// holds in expectation, so the empirical mean gets 2% relative slack
// against sampling noise (which shrinks as 1/√trials; at 24 trials the
// observed slack needed is under 1%).
func TestTheorem1Bound(t *testing.T) {
	pick := rand.New(rand.NewSource(7))
	const configs = 24
	const trials = 24
	for c := 0; c < configs; c++ {
		n := 100 + pick.Intn(400)          // 100 .. 499 nodes per side
		avgDeg := 1.5 + pick.Float64()*6.5 // target δ̄ in 1.5 .. 8
		r := 2 + pick.Intn(4)              // rounds 2 .. 5
		var sumSize, sumBound, sumAlpha float64
		used := 0
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(100_000*c + trial)))
			g := SparseRandomGraph(rng, n, n, avgDeg)
			mStar := runPIM(g, convergenceRounds(g), rand.New(rand.NewSource(int64(trial+1))), nil).Size()
			if mStar == 0 {
				continue
			}
			alpha := float64(n) / float64(mStar)
			bound := TheoremBound(g.AvgDegree(), alpha, r) * float64(mStar)
			m := runPIM(g, r, rng, nil)
			if !m.Valid(g) {
				t.Fatalf("config %d trial %d: invalid matching", c, trial)
			}
			sumSize += float64(m.Size())
			sumBound += bound
			sumAlpha += alpha
			used++
		}
		if used == 0 {
			continue
		}
		if sumSize < sumBound*(1-0.02) {
			t.Errorf("config %d (n=%d δ̄≈%.1f ᾱ≈%.2f r=%d): mean matching %.1f below Theorem 1 bound %.1f",
				c, n, avgDeg, sumAlpha/float64(used), r,
				sumSize/float64(used), sumBound/float64(used))
		}
	}
}

func TestTheoremBoundValues(t *testing.T) {
	// The paper's example: δ̄=5, 80% matched (α=1.25), r=4 ⇒ ≥ 97.5% of M*
	// (the paper states >78% of senders/receivers = 0.975 × 0.8).
	b := TheoremBound(5, 1.25, 4)
	if b < 0.975 || b > 0.9756 {
		t.Fatalf("bound = %v, want ≈0.9756", b)
	}
	// Fig. 4c worked example: n=144, δ=144, α=1.2, r=4 ⇒ 32.5%.
	b = TheoremBound(144, 1.2, 4)
	if b < 0.32 || b > 0.33 {
		t.Fatalf("dense bound = %v, want ≈0.325", b)
	}
	if TheoremBound(100, 2, 1) != 0 {
		t.Fatal("bound must clamp at 0")
	}
}

// Property: PIM output is always a valid matching and never shrinks with
// more rounds (monotone growth).
func TestPIMMonotoneProperty(t *testing.T) {
	f := func(seed int64, degree, size uint8) bool {
		n := int(size%50) + 2
		d := float64(degree%8) + 0.5
		g := SparseRandomGraph(rand.New(rand.NewSource(seed)), n, n, d)
		prev := 0
		for r := 0; r <= 6; r++ {
			m := runPIM(g, r, rand.New(rand.NewSource(seed+7)), nil)
			if !m.Valid(g) {
				return false
			}
			// Same RNG seed replays the same choices, so prefix rounds
			// agree and size is monotone.
			if m.Size() < prev {
				return false
			}
			prev = m.Size()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelMatchBasics(t *testing.T) {
	g := DenseGraph(4, 4)
	rng := rand.New(rand.NewSource(5))
	m := channelMatch(g, Options{Rounds: 4, K: 4}, rng, nil)
	if !m.Valid(g) {
		t.Fatal("invalid channel matching")
	}
	// Dense graph with unlimited demand: every host should saturate all
	// channels after enough rounds.
	if m.TotalChannels() != 16 {
		t.Fatalf("channels = %d, want 16 (all saturated)", m.TotalChannels())
	}
	if m.EffectiveSize() != 4 {
		t.Fatalf("effective size = %v, want 4", m.EffectiveSize())
	}
}

func TestChannelMatchRespectsDemand(t *testing.T) {
	g := DenseGraph(3, 3)
	rng := rand.New(rand.NewSource(8))
	m := channelMatch(g, Options{Rounds: 6, K: 4,
		Demand: func(s, r int) int { return 1 },
	}, rng, nil)
	if !m.Valid(g) {
		t.Fatal("invalid")
	}
	for key, c := range m.Channels {
		if c > 1 {
			t.Fatalf("edge %v got %d channels, demand was 1", key, c)
		}
	}
	// With unit demands on K3,3 and k=4, each node can still only match 3
	// channels (one per neighbor).
	for s, used := range m.SenderUsed {
		if used > 3 {
			t.Fatalf("sender %d used %d channels", s, used)
		}
	}
}

func TestChannelMatchK1EquivalentToPIM(t *testing.T) {
	// With k=1 the channel matcher degenerates to PIM-style matching:
	// sizes should be comparable (both maximal-ish on sparse graphs).
	rng := rand.New(rand.NewSource(11))
	g := SparseRandomGraph(rng, 80, 80, 3)
	m := channelMatch(g, Options{Rounds: 16, K: 1}, rng, nil)
	if !m.Valid(g) {
		t.Fatal("invalid")
	}
	pim := runPIM(g, convergenceRounds(g), rand.New(rand.NewSource(12)), nil)
	if float64(m.TotalChannels()) < 0.8*float64(pim.Size()) {
		t.Fatalf("k=1 channel matching %d far below PIM %d", m.TotalChannels(), pim.Size())
	}
}

func TestChannelMatchSRPTFirstRound(t *testing.T) {
	// Two senders want the same receiver, one channel each, k=1: the
	// FCT-optimizing round must pick the smaller remaining flow.
	g, _ := NewGraph(2, 1, [][]int{{0}, {0}})
	remaining := []int64{500, 100}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := channelMatch(g, Options{Rounds: 1, K: 1,
			Remaining: func(s, r int) int64 { return remaining[s] },
		}, rng, nil)
		if m.Channels[[2]int{1, 0}] != 1 {
			t.Fatalf("seed %d: SRPT round did not pick the shorter flow", seed)
		}
	}
}

// Property: channel matching never exceeds per-node budgets for arbitrary
// k, rounds and graphs, and all matched channels lie on edges.
func TestChannelMatchBudgetProperty(t *testing.T) {
	f := func(seed int64, kRaw, rRaw, nRaw, dRaw uint8) bool {
		k := int(kRaw%8) + 1
		rounds := int(rRaw % 6)
		n := int(nRaw%30) + 2
		d := float64(dRaw%6) + 0.5
		rng := rand.New(rand.NewSource(seed))
		g := SparseRandomGraph(rng, n, n, d)
		m := channelMatch(g, Options{Rounds: rounds, K: k}, rng, nil)
		return m.Valid(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Sparse graphs: few rounds of multi-channel matching should reach most of
// the saturated allocation — the quantitative heart of §3.4.
func TestChannelMatchUtilizationSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := SparseRandomGraph(rng, 144, 144, 4)
	// With unlimited demand, k does not change effective capacity much.
	m4 := channelMatch(g, Options{Rounds: 4, K: 4}, rng, nil)
	m1 := channelMatch(g, Options{Rounds: 4, K: 1}, rand.New(rand.NewSource(21)), nil)
	if m4.EffectiveSize() < 0.85*m1.EffectiveSize() {
		t.Fatalf("k=4 effective %v ≪ k=1 effective %v", m4.EffectiveSize(), m1.EffectiveSize())
	}
	// The §3.4 win: when flows are small (demand 1 channel ≈ one BDP of
	// data), k=1 leaves most of the data phase idle (effective size equals
	// matching size but each pair only fills 1/k of the phase). Model this
	// by comparing matched *demand-limited* capacity: with demand 1 and
	// k=4, hosts match up to 4 distinct peers, quadrupling admitted pairs.
	d1k4 := channelMatch(g, Options{Rounds: 4, K: 4,
		Demand: func(s, r int) int { return 1 },
	}, rand.New(rand.NewSource(22)), nil)
	d1k1 := channelMatch(g, Options{Rounds: 4, K: 1,
		Demand: func(s, r int) int { return 1 },
	}, rand.New(rand.NewSource(22)), nil)
	if d1k4.TotalChannels() < 2*d1k1.TotalChannels() {
		t.Fatalf("demand-1: k=4 matched %d pairs, k=1 matched %d — expected ≥2× gain",
			d1k4.TotalChannels(), d1k1.TotalChannels())
	}
}

// PIM's classic property: convergence in O(log n) rounds. On sparse
// graphs it converges even faster — always within a small multiple of
// log2(n), and the count matches what Theorem 1 predicts matters (the
// residual active set shrinks 4x per round). The pim row reports it as
// Stats.Rounds with Converged set.
func TestRoundsToMaximal(t *testing.T) {
	pim, err := MustLookup("pim").New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{64, 256, 1024} {
		for _, deg := range []float64{2, 8} {
			g := SparseRandomGraph(rng, n, n, deg)
			_, st := pim.Match(g, rng)
			if !st.Converged {
				t.Fatalf("n=%d deg=%.0f: not maximal after %d rounds", n, deg, st.Rounds)
			}
			logN := math.Ilogb(float64(n)) + 1
			if st.Rounds > 3*logN {
				t.Errorf("n=%d deg=%.0f: %d rounds to maximal, > 3·log2(n)=%d", n, deg, st.Rounds, 3*logN)
			}
			if st.Rounds < 1 && g.Edges() > 0 {
				t.Errorf("n=%d: converged in %d rounds with edges present", n, st.Rounds)
			}
		}
	}
	// Empty graph converges immediately.
	empty, _ := NewGraph(3, 3, [][]int{{}, {}, {}})
	if _, st := pim.Match(empty, rng); !st.Converged || st.Rounds != 0 {
		t.Errorf("empty graph: rounds = %d converged = %v", st.Rounds, st.Converged)
	}
}
