package matching

import "math/rand"

// Online dynamic b-matching, after arXiv 2006.10692: a reconfigurable
// fabric serves a *sequence* of demands, and changing the matching costs
// real work (circuit reconfiguration), so the matcher must amortize
// reconfiguration cost against the traffic an edge will actually carry.
//
// The adaptation here presents the graph's edge set as a demand sequence
// (DefaultBMatchEpochs passes, each a fresh uniform permutation of the
// edges) to an online algorithm with per-node capacity b = Options.K:
//
//   - A demand on an edge already in the b-matching is served free
//     (served[e]++).
//   - A demand on an unmatched edge increments that edge's rent counter.
//     Only once the counter reaches α = Options.ReconfigCost does the
//     matcher pay to install the edge — the classic rent-or-buy rule
//     that makes the reconfiguration cost O(1)-competitive against the
//     traffic the edge has proven it will carry.
//   - Installing into a full endpoint evicts the incident matched edge
//     with the fewest served demands, but only if that victim has served
//     fewer demands than the newcomer has pending — otherwise the
//     newcomer keeps renting.
//
// Communication accounting: each demand presentation costs one control
// message (the fabric learns the demand exists), and each installation
// or eviction costs one message (the reconfiguration command). Stats are
// noted once per epoch; Reconfigs counts installs + evictions.
func runOnlineB(g *Graph, o Options, rng *rand.Rand) (*Matching, Stats) {
	var st Stats
	k := o.K
	cm := &ChannelMatching{
		K:            k,
		Channels:     make(map[[2]int]int),
		SenderUsed:   make([]int, g.Senders),
		ReceiverUsed: make([]int, g.Receivers),
	}
	// Flat edge list; perm indices into it give the demand sequence.
	type edge struct{ s, r int }
	edges := make([]edge, 0, g.Edges())
	for s, rs := range g.Adj {
		for _, r := range rs {
			edges = append(edges, edge{s, r})
		}
	}
	served := make(map[[2]int]int) // demands served while matched
	rent := make(map[[2]int]int)   // unmatched-demand counters
	matched := 0

	// matchedAt[r] lists the senders currently matched to receiver r
	// (≤ k entries, kept sorted ascending so eviction scans are
	// deterministic and O(k) instead of O(senders)).
	matchedAt := make([][]int, g.Receivers)
	insertMatched := func(r, s int) {
		lst := matchedAt[r]
		i := len(lst)
		for i > 0 && lst[i-1] > s {
			i--
		}
		lst = append(lst, 0)
		copy(lst[i+1:], lst[i:])
		lst[i] = s
		matchedAt[r] = lst
	}
	removeMatched := func(r, s int) {
		lst := matchedAt[r]
		for i, v := range lst {
			if v == s {
				matchedAt[r] = append(lst[:i], lst[i+1:]...)
				return
			}
		}
	}

	// evictLeast picks the least-served matched edge incident to a full
	// endpoint of (s, r), scanning the sender's adjacency and the
	// receiver's matched list in index order for determinism.
	evictLeast := func(s, r int) ([2]int, bool) {
		best := [2]int{-1, -1}
		bestServed := 0
		if cm.SenderUsed[s] >= k {
			for _, rr := range g.Adj[s] {
				key := [2]int{s, rr}
				if cm.Channels[key] == 0 {
					continue
				}
				if best[0] < 0 || served[key] < bestServed {
					best, bestServed = key, served[key]
				}
			}
		}
		if cm.ReceiverUsed[r] >= k {
			for _, ss := range matchedAt[r] {
				key := [2]int{ss, r}
				if best[0] < 0 || served[key] < bestServed {
					best, bestServed = key, served[key]
				}
			}
		}
		return best, best[0] >= 0
	}

	epochs := o.Rounds
	if epochs <= 0 {
		epochs = DefaultBMatchEpochs
	}
	alpha := o.ReconfigCost
	for epoch := 0; epoch < epochs; epoch++ {
		var msgs int64
		changed := false
		for _, i := range rng.Perm(len(edges)) {
			e := edges[i]
			key := [2]int{e.s, e.r}
			msgs++ // the demand presentation itself
			if cm.Channels[key] > 0 {
				served[key]++
				continue
			}
			rent[key]++
			if rent[key] < alpha {
				continue
			}
			// Buy: make room on both endpoints if justified, then install.
			for cm.SenderUsed[e.s] >= k || cm.ReceiverUsed[e.r] >= k {
				victim, ok := evictLeast(e.s, e.r)
				if !ok || served[victim] >= rent[key] {
					victim = [2]int{-1, -1}
				}
				if victim[0] < 0 {
					break
				}
				delete(cm.Channels, victim)
				cm.SenderUsed[victim[0]]--
				cm.ReceiverUsed[victim[1]]--
				removeMatched(victim[1], victim[0])
				served[victim] = 0
				matched--
				st.Reconfigs++
				msgs++ // eviction command
				changed = true
			}
			if cm.SenderUsed[e.s] < k && cm.ReceiverUsed[e.r] < k {
				cm.Channels[key] = 1
				cm.SenderUsed[e.s]++
				cm.ReceiverUsed[e.r]++
				insertMatched(e.r, e.s)
				served[key] = rent[key]
				delete(rent, key)
				matched++
				st.Reconfigs++
				msgs++ // install command
				changed = true
			}
		}
		st.note(msgs, matched)
		if !changed && epoch > 0 {
			st.Converged = true
			break
		}
	}
	st.MatchedChannels = matched
	st.K = k
	return cm.Project(g), st
}
