package matching

import "math/rand"

// Communication-budget matching, after "bipartite matching under
// communication constraints" (arXiv 2604.10744): the control plane is
// the scarce resource, so each PIM round must fit an explicit bit
// budget. The matcher truncates the request fan-out so that even in the
// worst case — every request answered by a grant and every grant by an
// accept — the round's total bits stay within Options.BudgetBits.
//
// Budget accounting (DESIGN.md §15): every control message costs
// ControlMsgBits, and one admitted request can induce at most one grant
// and one accept, so a round that sends R requests costs at most
// 3·R·ControlMsgBits bits. The per-round request quota is therefore
//
//	maxReq = floor(BudgetBits / (3 · ControlMsgBits))
//
// which makes the budget guarantee exact (zero slack), at the price of
// under-using the budget in late rounds where few grants echo back.
// The quota is split fairly across the senders still unmatched: each
// active sender may send floor(maxReq/active) requests, and the
// remainder goes one extra request each to the lowest-indexed active
// senders. A sender with more unmatched neighbors than its quota picks a
// uniform random subset (partial Fisher-Yates), so the truncation stays
// unbiased and the matcher remains PIM-convergent, just slower: fewer
// requests per round means fewer resolved pairs per round.
func runBudgetPIM(g *Graph, o Options, rng *rand.Rand) (*Matching, Stats) {
	var st Stats
	m := &Matching{
		SenderOf:   fillNeg(g.Receivers),
		ReceiverOf: fillNeg(g.Senders),
	}
	maxReq := int64(-1) // unlimited
	if o.BudgetBits > 0 {
		maxReq = int64(o.BudgetBits / (3 * ControlMsgBits))
	}
	rounds := o.roundsFor(g)
	grants := make([][]int, g.Senders)
	scratch := make([]int, 0, 64) // reused candidate buffer
	for round := 0; round < rounds; round++ {
		// Census pass: which senders still have an unmatched neighbor?
		// Costs no messages and no RNG draws.
		activeSenders := 0
		for s := 0; s < g.Senders; s++ {
			if m.ReceiverOf[s] >= 0 {
				continue
			}
			for _, r := range g.Adj[s] {
				if m.SenderOf[r] < 0 {
					activeSenders++
					break
				}
			}
		}
		if activeSenders == 0 {
			st.Converged = true
			break
		}

		// Fair-share quotas: base requests per active sender, remainder
		// distributed one each to the first active senders in index
		// order (deterministic, no RNG).
		base, extra := int64(-1), int64(0)
		if maxReq >= 0 {
			base = maxReq / int64(activeSenders)
			extra = maxReq % int64(activeSenders)
		}

		// Request stage under quota.
		requests := make([][]int, g.Receivers)
		var reqMsgs int64
		seen := 0
		for s := 0; s < g.Senders; s++ {
			if m.ReceiverOf[s] >= 0 {
				continue
			}
			scratch = scratch[:0]
			for _, r := range g.Adj[s] {
				if m.SenderOf[r] < 0 {
					scratch = append(scratch, r)
				}
			}
			if len(scratch) == 0 {
				continue
			}
			quota := int64(len(scratch))
			if base >= 0 {
				quota = base
				if int64(seen) < extra {
					quota++
				}
			}
			seen++
			if quota <= 0 {
				continue
			}
			if quota < int64(len(scratch)) {
				// Uniform random subset of size quota via partial
				// Fisher-Yates: after i swaps, scratch[:i] is a uniform
				// i-subset in uniform order.
				for i := int64(0); i < quota; i++ {
					j := int(i) + rng.Intn(len(scratch)-int(i))
					scratch[i], scratch[j] = scratch[j], scratch[i]
				}
				scratch = scratch[:quota]
			}
			for _, r := range scratch {
				requests[r] = append(requests[r], s)
				reqMsgs++
			}
		}
		if reqMsgs == 0 {
			// Quota rounded to zero requests: the budget cannot carry a
			// single three-message exchange, so no progress is possible.
			break
		}

		// Grant and accept stages mirror runPIM; grants ≤ requests and
		// accepts ≤ grants keep the round under budget by construction.
		for s := range grants {
			grants[s] = grants[s][:0]
		}
		var grantMsgs int64
		for r := 0; r < g.Receivers; r++ {
			if m.SenderOf[r] >= 0 || len(requests[r]) == 0 {
				continue
			}
			s := requests[r][rng.Intn(len(requests[r]))]
			grants[s] = append(grants[s], r)
			grantMsgs++
		}
		var acceptMsgs int64
		for s := 0; s < g.Senders; s++ {
			if len(grants[s]) == 0 || m.ReceiverOf[s] >= 0 {
				continue
			}
			r := grants[s][rng.Intn(len(grants[s]))]
			m.ReceiverOf[s] = r
			m.SenderOf[r] = s
			acceptMsgs++
		}
		st.note(reqMsgs+grantMsgs+acceptMsgs, m.Size())
	}
	return m, st
}
