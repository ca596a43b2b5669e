package matching

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	for _, want := range []string{"pim", "dcpim", "maximal", "dcpim-k", "budget-pim", "online-bmatch"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("matcher %q not registered (have %v)", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

// checkTable reports the first row of ds that breaks the table's rules:
// a name, a constructor, and names strictly sorted (hence unique).
func checkTable(ds []Descriptor) error {
	for i, d := range ds {
		if d.Name == "" || d.New == nil {
			return fmt.Errorf("row %d: incomplete descriptor %+v", i, d)
		}
		if i > 0 && ds[i-1].Name >= d.Name {
			return fmt.Errorf("row %d: %q after %q: names not unique and sorted", i, d.Name, ds[i-1].Name)
		}
	}
	return nil
}

func TestRegisterRejectsDuplicatesAndIncomplete(t *testing.T) {
	if err := checkTable(matchers); err != nil {
		t.Fatal(err)
	}
	dup := append([]Descriptor{}, matchers...)
	dup = append(dup, matchers[len(matchers)-1])
	noNew := append([]Descriptor{}, matchers...)
	noNew[0].New = nil
	for name, ds := range map[string][]Descriptor{"duplicate row": dup, "nil constructor": noNew} {
		if checkTable(ds) == nil {
			t.Errorf("%s: table check passed", name)
		}
	}
}

func TestMustLookupUnknownPanicsWithNames(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustLookup did not panic on unknown name")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "pim") {
			t.Fatalf("panic message does not list the matchers: %v", r)
		}
	}()
	MustLookup("no-such-matcher")
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("no-such-matcher"); ok {
		t.Fatal("Lookup found a matcher that is not in the table")
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Rounds: -1, K: 1},
		{K: 0},
		{K: -3},
		{K: 1, BudgetBits: math.NaN()},
		{K: 1, BudgetBits: -5},
		{K: 1, BudgetBits: math.Inf(1)},
		{K: 1, ReconfigCost: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, o)
		}
	}
	good := []Options{
		{K: 1},
		{Rounds: 10, K: 4, BudgetBits: 1024, ReconfigCost: 2},
	}
	for i, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("case %d: Validate rejected %+v: %v", i, o, err)
		}
	}
	// Every row's constructor surfaces the same rejections as errors.
	for _, name := range Names() {
		if _, err := MustLookup(name).New(Options{Rounds: -1}); err == nil {
			t.Errorf("%s: New accepted Rounds=-1", name)
		}
		if _, err := MustLookup(name).New(Options{BudgetBits: math.NaN()}); err == nil {
			t.Errorf("%s: New accepted NaN budget", name)
		}
	}
}

func TestChannelMatchPanicsOnInvalidOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("channelMatch accepted K=0")
		}
	}()
	channelMatch(DenseGraph(2, 2), Options{Rounds: 1, K: 0}, rand.New(rand.NewSource(1)), nil)
}

// Each row must replay the exact RNG stream of the core it wraps under
// the same seed: the table is a re-expression, not a reimplementation.
func TestAdaptersMatchDirectCalls(t *testing.T) {
	g := SparseRandomGraph(rand.New(rand.NewSource(4)), 96, 96, 3)
	sameMatching := func(name string, got, want *Matching) {
		t.Helper()
		for s, r := range want.ReceiverOf {
			if got.ReceiverOf[s] != r {
				t.Fatalf("%s row diverged from its core at sender %d", name, s)
			}
		}
	}

	pim, err := MustLookup("pim").New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, st := pim.Match(g, rand.New(rand.NewSource(7)))
	sameMatching("pim", got, runPIM(g, convergenceRounds(g), rand.New(rand.NewSource(7)), nil))
	if !st.Converged {
		t.Error("pim row did not report convergence on a sparse graph")
	}
	if st.Msgs <= 0 || st.ControlBits != st.Msgs*ControlMsgBits {
		t.Errorf("pim stats inconsistent: msgs=%d bits=%d", st.Msgs, st.ControlBits)
	}

	bounded, err := MustLookup("dcpim").New(Options{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	bm, bst := bounded.Match(g, rand.New(rand.NewSource(9)))
	sameMatching("dcpim", bm, runPIM(g, 3, rand.New(rand.NewSource(9)), nil))
	if bst.Rounds > 3 {
		t.Fatalf("dcpim ran %d rounds with budget 3", bst.Rounds)
	}
	if len(bst.RoundSizes) != bst.Rounds {
		t.Fatalf("RoundSizes len %d != Rounds %d", len(bst.RoundSizes), bst.Rounds)
	}

	max, err := MustLookup("maximal").New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	mm, mst := max.Match(g, rand.New(rand.NewSource(11)))
	sameMatching("maximal", mm, maximalMatch(g))
	if mst.Msgs != 0 || !mst.Converged {
		t.Fatalf("maximal row: msgs %d, converged %v", mst.Msgs, mst.Converged)
	}

	kMatcher, err := MustLookup("dcpim-k").New(Options{Rounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	km, kst := kMatcher.Match(g, rand.New(rand.NewSource(13)))
	cm := channelMatch(g, Options{Rounds: 4, K: DefaultK}, rand.New(rand.NewSource(13)), nil)
	sameMatching("dcpim-k", km, cm.Project(g))
	if kst.MatchedChannels != cm.TotalChannels() || kst.K != DefaultK {
		t.Fatalf("dcpim-k row: %d channels at K=%d, core matched %d", kst.MatchedChannels, kst.K, cm.TotalChannels())
	}
}

// The pim row's round budget is always enough to converge; a dcpim row
// whose budget runs out first reports Converged = false.
func TestRoundsToMaximalCap(t *testing.T) {
	g := DenseGraph(4, 4)
	pim, err := MustLookup("pim").New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, st := pim.Match(g, rand.New(rand.NewSource(1))); !st.Converged || st.Rounds < 1 {
		t.Fatalf("pim on K4,4: rounds=%d converged=%v", st.Rounds, st.Converged)
	}
	one, err := MustLookup("dcpim").New(Options{Rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, st := one.Match(g, rand.New(rand.NewSource(1))); st.Converged || st.Rounds != 1 {
		t.Fatalf("dcpim with 1 round on K4,4: rounds=%d converged=%v", st.Rounds, st.Converged)
	}
}

func TestSparseRandomGraphDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := SparseRandomGraph(rng, 2000, 2000, 6)
	if d := g.AvgDegree(); d < 5.5 || d > 6.5 {
		t.Fatalf("sparse generator avg degree = %v, want ≈6", d)
	}
	// Edges must be sorted, in-range and duplicate-free per sender.
	for s, rs := range g.Adj {
		for i, r := range rs {
			if r < 0 || r >= 2000 {
				t.Fatalf("sender %d: receiver %d out of range", s, r)
			}
			if i > 0 && rs[i-1] >= r {
				t.Fatalf("sender %d: adjacency not strictly increasing: %v", s, rs)
			}
		}
	}
	// p >= 1 degenerates to the dense graph.
	if g := SparseRandomGraph(rng, 8, 8, 9); g.Edges() != 64 {
		t.Fatalf("p>=1 should give the complete graph, got %d edges", g.Edges())
	}
	// Degree 0 gives no edges.
	if g := SparseRandomGraph(rng, 8, 8, 0); g.Edges() != 0 {
		t.Fatalf("degree 0 gave %d edges", g.Edges())
	}
}

func TestChannelMatchingProject(t *testing.T) {
	g := SparseRandomGraph(rand.New(rand.NewSource(6)), 40, 40, 4)
	cm := channelMatch(g, Options{Rounds: 8, K: 4}, rand.New(rand.NewSource(8)), nil)
	um := cm.Project(g)
	if !um.Valid(g) {
		t.Fatal("projected matching invalid")
	}
	// Every projected pair must hold at least one channel in the b-matching.
	for s, r := range um.ReceiverOf {
		if r >= 0 && cm.Channels[[2]int{s, r}] == 0 {
			t.Fatalf("projection invented pair (%d,%d) with no channels", s, r)
		}
	}
}
