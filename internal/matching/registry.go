package matching

import (
	"fmt"
	"math/rand"
)

// Matcher computes a matching on a bipartite demand graph and reports
// convergence and communication statistics. Implementations must be
// deterministic given the graph and the RNG stream, and must accumulate
// Stats without drawing from the RNG.
type Matcher interface {
	Match(g *Graph, rng *rand.Rand) (*Matching, Stats)
}

// Descriptor is one row of the matcher table. New builds an instance for
// validated Options; it is invoked once per Match-site configuration, so
// construction may normalize options but must not touch global state.
type Descriptor struct {
	// Name is the table key (e.g. "pim", "dcpim", "budget-pim").
	Name string
	// Budgeted reports whether the matcher honors Options.BudgetBits;
	// the matchers sweep only varies budgets for budgeted matchers.
	Budgeted bool
	// New constructs a matcher for g-independent options. Zero-valued
	// Options fields are resolved to matcher defaults before Validate,
	// so New never sees K=0 or Rounds<0.
	New func(o Options) (Matcher, error)
}

// matchers is the table of every matcher, sorted by name. The sweep
// enumerates its cells in this order.
var matchers = []Descriptor{
	// PIM with request fan-out truncated to a per-round communication
	// budget (arXiv 2604.10744).
	{Name: "budget-pim", Budgeted: true, New: newMatcher(1, runBudgetPIM)},
	// dcPIM's bounded-round PIM (Theorem 1 regime; default
	// r = 4·log2(n)+8).
	{Name: "dcpim", New: newMatcher(1, func(g *Graph, o Options, rng *rand.Rand) (*Matching, Stats) {
		var st Stats
		return runPIM(g, o.roundsFor(g), rng, &st), st
	})},
	// dcPIM multi-channel b-matching (§3.4; default K = 4), projected to
	// a unit matching.
	{Name: "dcpim-k", New: newMatcher(DefaultK, func(g *Graph, o Options, rng *rand.Rand) (*Matching, Stats) {
		var st Stats
		o.Rounds = o.roundsFor(g)
		return channelMatch(g, o, rng, &st).Project(g), st
	})},
	// Deterministic greedy maximal matching (centralized reference, zero
	// control bits).
	{Name: "maximal", New: newMatcher(1, func(g *Graph, _ Options, _ *rand.Rand) (*Matching, Stats) {
		m := maximalMatch(g)
		return m, Stats{Converged: true, RoundSizes: []int{m.Size()}}
	})},
	// Online dynamic b-matching with rent-or-buy reconfiguration
	// amortization (arXiv 2006.10692).
	{Name: "online-bmatch", New: newMatcher(DefaultK, runOnlineB)},
	// Classic Parallel Iterative Matching run to convergence (the
	// paper's M*). It ignores o.Rounds: "pim" always runs the full
	// convergence budget.
	{Name: "pim", New: newMatcher(1, func(g *Graph, _ Options, rng *rand.Rand) (*Matching, Stats) {
		var st Stats
		return runPIM(g, convergenceRounds(g), rng, &st), st
	})},
}

// matcherFunc adapts a closure to the Matcher interface.
type matcherFunc func(g *Graph, rng *rand.Rand) (*Matching, Stats)

func (f matcherFunc) Match(g *Graph, rng *rand.Rand) (*Matching, Stats) { return f(g, rng) }

// newMatcher builds a row's constructor: it resolves o against the
// matcher defaults (K defaults to defK) and validates it once, so the
// core f always runs under valid Options.
func newMatcher(defK int, f func(*Graph, Options, *rand.Rand) (*Matching, Stats)) func(Options) (Matcher, error) {
	return func(o Options) (Matcher, error) {
		o = o.withDefaults(defK)
		if err := o.Validate(); err != nil {
			return nil, err
		}
		return matcherFunc(func(g *Graph, rng *rand.Rand) (*Matching, Stats) { return f(g, o, rng) }), nil
	}
}

// Lookup returns the descriptor for name.
func Lookup(name string) (Descriptor, bool) {
	for _, d := range matchers {
		if d.Name == name {
			return d, true
		}
	}
	return Descriptor{}, false
}

// MustLookup returns the descriptor for name, panicking with the list of
// known matchers if it is unknown.
func MustLookup(name string) Descriptor {
	d, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("matching: unknown matcher %q (known: %v)", name, Names()))
	}
	return d
}

// Names returns every matcher name in table order, which is sorted.
func Names() []string {
	names := make([]string, len(matchers))
	for i, d := range matchers {
		names[i] = d.Name
	}
	return names
}
