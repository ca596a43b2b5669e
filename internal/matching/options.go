package matching

import (
	"fmt"
	"math"
)

// Options is the one validated tuning struct shared by every matcher.
// Zero values mean "matcher default": a row's New applies withDefaults
// before Validate.
type Options struct {
	// Rounds is the round budget. 0 selects the matcher's default (the
	// convergence budget 4·log₂(n)+8 for round-based matchers). Negative
	// is rejected.
	Rounds int
	// K is the per-node channel count for b-matchers (dcpim-k,
	// online-bmatch). 0 selects the matcher default: DefaultK for
	// b-matchers, 1 for unit matchers. K<1 after defaulting is rejected.
	K int
	// BudgetBits is the per-round communication budget in bits for
	// budgeted matchers (budget-pim): total request+grant+accept bits in
	// any one round never exceed it. 0 means unlimited. NaN, negative
	// and +Inf-from-arithmetic-garbage values are rejected.
	BudgetBits float64
	// ReconfigCost is the online b-matcher's rent-or-buy threshold α: an
	// edge must be demanded α times before the matcher pays to add it
	// (arXiv 2006.10692). 0 selects DefaultReconfigCost.
	ReconfigCost int
	// Demand returns how many channels sender s needs toward receiver r
	// (≥1; capped at K). Nil means "as many as possible" (K).
	Demand func(s, r int) int
	// Remaining returns the remaining-bytes key used by the
	// FCT-optimizing first round (§3.5): lower sorts first. Nil disables
	// the FCT round (all rounds pick uniformly at random).
	Remaining func(s, r int) int64
}

// Validate rejects option combinations no matcher can honor: negative
// round budgets, channel counts below 1, and NaN/negative/infinite
// communication budgets. It does not apply defaults — a row's New (or
// withDefaults) does that.
func (o Options) Validate() error {
	if o.Rounds < 0 {
		return fmt.Errorf("matching: Rounds = %d, must be ≥ 0", o.Rounds)
	}
	if o.K < 1 {
		return fmt.Errorf("matching: K = %d, must be ≥ 1", o.K)
	}
	if math.IsNaN(o.BudgetBits) {
		return fmt.Errorf("matching: BudgetBits is NaN")
	}
	if o.BudgetBits < 0 {
		return fmt.Errorf("matching: BudgetBits = %v, must be ≥ 0", o.BudgetBits)
	}
	if math.IsInf(o.BudgetBits, 0) {
		return fmt.Errorf("matching: BudgetBits is infinite; use 0 for unlimited")
	}
	if o.ReconfigCost < 0 {
		return fmt.Errorf("matching: ReconfigCost = %d, must be ≥ 0", o.ReconfigCost)
	}
	return nil
}

// Matcher defaults, applied by a row's New when the corresponding
// Options field is zero.
const (
	// DefaultK is the channel count dcPIM runs with (§3.4).
	DefaultK = 4
	// DefaultReconfigCost is the online b-matcher's rent-or-buy
	// threshold α: pay for an edge after it has been demanded twice,
	// the classic 2-competitive ski-rental choice.
	DefaultReconfigCost = 2
	// DefaultBMatchEpochs is how many passes over the demand sequence
	// the online b-matcher makes; each pass replays every edge once in
	// a fresh random order.
	DefaultBMatchEpochs = 6
)

// withDefaults resolves the graph-independent zero-valued fields against
// matcher defaults: K→defK (unit matchers pass 1, channel matchers
// DefaultK), ReconfigCost→DefaultReconfigCost. Rounds=0 stays 0 here —
// it means "convergence budget for this graph" and is resolved per-graph
// inside Match via roundsFor.
func (o Options) withDefaults(defK int) Options {
	if o.K == 0 {
		o.K = defK
	}
	if o.ReconfigCost == 0 {
		o.ReconfigCost = DefaultReconfigCost
	}
	return o
}

// roundsFor resolves the round budget for one graph: the explicit budget
// if set, else the 4·log₂(n)+8 convergence budget.
func (o Options) roundsFor(g *Graph) int {
	if o.Rounds > 0 {
		return o.Rounds
	}
	return convergenceRounds(g)
}
