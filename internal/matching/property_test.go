package matching

import (
	"math/rand"
	"testing"
)

// Randomized property grid over every matcher in the table: each must
// return a Valid matching on arbitrary graphs, report internally
// consistent Stats, and — when budgeted — keep every round's control
// bits within the stated budget (the budget-pim construction has zero
// slack: requests are truncated so even all-grants-all-accepts rounds
// fit).
func TestAllRegisteredMatchersPropertyGrid(t *testing.T) {
	pick := rand.New(rand.NewSource(41))
	const configs = 30
	for c := 0; c < configs; c++ {
		n := 8 + pick.Intn(120)
		deg := 0.5 + pick.Float64()*5
		dense := pick.Intn(4) == 0
		gseed := int64(1000 + c)
		var g *Graph
		if dense {
			g = DenseGraph(n, n)
		} else {
			g = SparseRandomGraph(rand.New(rand.NewSource(gseed)), n, n, deg)
		}
		budget := float64((pick.Intn(4) + 1)) * 0.1 * 3 * float64(g.Edges()+1) * ControlMsgBits
		for _, name := range Names() {
			d := MustLookup(name)
			o := Options{}
			if d.Budgeted {
				o.BudgetBits = budget
			}
			m, err := d.New(o)
			if err != nil {
				t.Fatalf("config %d: %s.New: %v", c, name, err)
			}
			got, st := m.Match(g, rand.New(rand.NewSource(gseed+int64(c)+77)))
			if !got.Valid(g) {
				t.Fatalf("config %d (n=%d dense=%v): %s returned invalid matching", c, n, dense, name)
			}
			if st.ControlBits != st.Msgs*ControlMsgBits {
				t.Fatalf("%s: ControlBits %d != Msgs %d × %d", name, st.ControlBits, st.Msgs, ControlMsgBits)
			}
			if len(st.RoundBits) > 0 && len(st.RoundBits) != st.Rounds {
				t.Fatalf("%s: %d RoundBits entries for %d rounds", name, len(st.RoundBits), st.Rounds)
			}
			var sum int64
			for i, b := range st.RoundBits {
				sum += b
				if d.Budgeted && o.BudgetBits > 0 && float64(b) > o.BudgetBits {
					t.Fatalf("config %d: %s round %d spent %d bits > budget %.0f",
						c, name, i, b, o.BudgetBits)
				}
			}
			if len(st.RoundBits) > 0 && sum != st.ControlBits {
				t.Fatalf("%s: RoundBits sum %d != ControlBits %d", name, sum, st.ControlBits)
			}
			// Matchers that never reconfigure only add pairs, so their
			// trajectory is monotone; the online b-matcher may evict.
			if st.Reconfigs == 0 {
				for i := 1; i < len(st.RoundSizes); i++ {
					if st.RoundSizes[i] < st.RoundSizes[i-1] {
						t.Fatalf("%s: matching shrank between rounds: %v", name, st.RoundSizes)
					}
				}
			}
		}
	}
}

// Budgeted matchers still converge — just in more rounds — and unlimited
// budget reproduces plain dcPIM exactly (same RNG stream).
func TestBudgetPIMBehaviors(t *testing.T) {
	g := SparseRandomGraph(rand.New(rand.NewSource(3)), 512, 512, 4)
	d := MustLookup("budget-pim")

	unlimited, err := d.New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	um, ust := unlimited.Match(g, rand.New(rand.NewSource(5)))
	plain, err := MustLookup("dcpim").New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	pm, _ := plain.Match(g, rand.New(rand.NewSource(5)))
	if um.Size() != pm.Size() {
		t.Fatalf("unlimited budget-pim size %d != dcpim %d", um.Size(), pm.Size())
	}
	for s, r := range pm.ReceiverOf {
		if um.ReceiverOf[s] != r {
			t.Fatalf("unlimited budget-pim diverged from dcpim at sender %d", s)
		}
	}

	full := 3 * float64(g.Edges()) * ControlMsgBits
	tight, err := d.New(Options{BudgetBits: 0.1 * full})
	if err != nil {
		t.Fatal(err)
	}
	tm, tst := tight.Match(g, rand.New(rand.NewSource(5)))
	if !tm.Valid(g) {
		t.Fatal("budgeted matching invalid")
	}
	if tst.Rounds <= ust.Rounds {
		t.Errorf("10%% budget converged in %d rounds, unlimited took %d — truncation had no cost?",
			tst.Rounds, ust.Rounds)
	}
	if float64(tm.Size()) < 0.8*float64(um.Size()) {
		t.Errorf("10%% budget matched %d vs unlimited %d — should still approach maximal", tm.Size(), um.Size())
	}
	// A budget too small for a single exchange makes no progress at all.
	starved, err := d.New(Options{BudgetBits: ControlMsgBits})
	if err != nil {
		t.Fatal(err)
	}
	sm, sst := starved.Match(g, rand.New(rand.NewSource(5)))
	if sm.Size() != 0 || sst.Msgs != 0 {
		t.Fatalf("sub-exchange budget matched %d with %d msgs", sm.Size(), sst.Msgs)
	}
}

// The online dynamic b-matcher reaches a competitive matching and
// reports its reconfiguration spend.
func TestOnlineBMatchQuality(t *testing.T) {
	g := SparseRandomGraph(rand.New(rand.NewSource(13)), 256, 256, 4)
	d := MustLookup("online-bmatch")
	m, err := d.New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, st := m.Match(g, rand.New(rand.NewSource(17)))
	if !got.Valid(g) {
		t.Fatal("invalid matching")
	}
	if st.Reconfigs <= 0 {
		t.Error("online b-matcher reports zero reconfigurations on a non-empty graph")
	}
	if st.K != DefaultK || st.MatchedChannels <= 0 {
		t.Errorf("stats K=%d channels=%d", st.K, st.MatchedChannels)
	}
	ref, err := MustLookup("pim").New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rm, _ := ref.Match(g, rand.New(rand.NewSource(19)))
	// K channels per node admit at least as much effective capacity as a
	// unit matching; the projected unit matching should reach a healthy
	// fraction of M*.
	if float64(got.Size()) < 0.5*float64(rm.Size()) {
		t.Errorf("online-bmatch projected size %d ≪ M* %d", got.Size(), rm.Size())
	}
	if st.EffectiveSize(got) < float64(rm.Size())*0.8 {
		t.Errorf("online-bmatch effective size %.1f ≪ M* %d", st.EffectiveSize(got), rm.Size())
	}
	// Rent-or-buy: a higher reconfiguration cost must not increase the
	// number of reconfigurations.
	costly, err := d.New(Options{ReconfigCost: 8})
	if err != nil {
		t.Fatal(err)
	}
	_, cst := costly.Match(g, rand.New(rand.NewSource(17)))
	if cst.Reconfigs > st.Reconfigs {
		t.Errorf("α=8 paid %d reconfigs, α=2 paid %d", cst.Reconfigs, st.Reconfigs)
	}
}

// Stats overhead accounting sanity.
func TestStatsOverheadAccounting(t *testing.T) {
	var st Stats
	m := &Matching{SenderOf: []int{0, -1}, ReceiverOf: []int{0, -1}}
	if v := st.ControlBytesPerMatchedByte(m); v != 0 {
		// One matched pair, zero control bits.
		t.Fatalf("free matching should cost 0, got %v", v)
	}
	st.note(100, 1)
	want := float64(100*ControlMsgBits/8) / float64(EpochPayloadBytes)
	if v := st.ControlBytesPerMatchedByte(m); v != want {
		t.Fatalf("overhead = %v, want %v", v, want)
	}
	empty := &Matching{SenderOf: []int{-1}, ReceiverOf: []int{-1}}
	if v := st.ControlBytesPerMatchedByte(empty); !(v > 1e300) {
		t.Fatalf("spent bits with nothing matched should be +Inf, got %v", v)
	}
}
