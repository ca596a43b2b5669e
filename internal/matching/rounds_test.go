package matching

import (
	"math/rand"
	"testing"
)

// The dcpim row's Stats.RoundSizes is the per-round trajectory Theorem 1
// bounds: one entry per executed round, nondecreasing, ending at the
// final matching size.
func TestPIMRoundsTrajectory(t *testing.T) {
	g := SparseRandomGraph(rand.New(rand.NewSource(7)), 32, 32, 4)
	dcpim, err := MustLookup("dcpim").New(Options{Rounds: 6})
	if err != nil {
		t.Fatal(err)
	}
	m, st := dcpim.Match(g, rand.New(rand.NewSource(9)))
	if !m.Valid(g) {
		t.Fatal("invalid matching")
	}
	sizes := st.RoundSizes
	if len(sizes) == 0 || len(sizes) != st.Rounds || st.Rounds > 6 {
		t.Fatalf("%d round sizes for %d rounds (budget 6)", len(sizes), st.Rounds)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatalf("round %d shrank the matching: %v", i, sizes)
		}
	}
	if sizes[len(sizes)-1] != m.Size() {
		t.Fatalf("last round size %d != final %d", sizes[len(sizes)-1], m.Size())
	}
}

// The dcpim-k row records one cumulative, nondecreasing channel count
// per executed round, ending at MatchedChannels; convergence-skipped
// rounds record nothing.
func TestChannelMatchOnRound(t *testing.T) {
	g := SparseRandomGraph(rand.New(rand.NewSource(3)), 24, 24, 3)
	dk, err := MustLookup("dcpim-k").New(Options{Rounds: 8})
	if err != nil {
		t.Fatal(err)
	}
	m, st := dk.Match(g, rand.New(rand.NewSource(5)))
	if !m.Valid(g) {
		t.Fatal("invalid projected matching")
	}
	counts := st.RoundSizes
	if len(counts) == 0 || len(counts) > 8 || len(counts) != st.Rounds {
		t.Fatalf("%d round sizes for %d rounds (budget 8)", len(counts), st.Rounds)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("matched channels decreased: %v", counts)
		}
	}
	if last := counts[len(counts)-1]; last != st.MatchedChannels {
		t.Fatalf("final round count %d != MatchedChannels %d", last, st.MatchedChannels)
	}
}
