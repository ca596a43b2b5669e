package matching

import (
	"fmt"
	"math/rand"
)

// ChannelMatching is a bipartite b-matching: up to K channels per sender
// and per receiver, each matched channel pairing one sender with one
// receiver.
type ChannelMatching struct {
	K            int
	Channels     map[[2]int]int // {s, r} → matched channel count
	SenderUsed   []int          // channels used per sender
	ReceiverUsed []int          // channels used per receiver
}

// TotalChannels returns the number of matched channels.
func (m *ChannelMatching) TotalChannels() int {
	n := 0
	// An int sum: map order cannot affect it.
	for _, c := range m.Channels {
		n += c
	}
	return n
}

// EffectiveSize returns matched channels normalized by K — the analogue of
// matching size for utilization math (each channel carries 1/K of a link).
func (m *ChannelMatching) EffectiveSize() float64 {
	return float64(m.TotalChannels()) / float64(m.K)
}

// Valid reports whether the b-matching respects per-node channel budgets
// and only uses graph edges.
func (m *ChannelMatching) Valid(g *Graph) bool {
	su := make([]int, g.Senders)
	ru := make([]int, g.Receivers)
	// Per-edge budget sums and an AND of checks: map order cannot affect them.
	for key, c := range m.Channels {
		s, r := key[0], key[1]
		if c <= 0 || s < 0 || s >= g.Senders || r < 0 || r >= g.Receivers {
			return false
		}
		found := false
		for _, rr := range g.Adj[s] {
			if rr == r {
				found = true
				break
			}
		}
		if !found {
			return false
		}
		su[s] += c
		ru[r] += c
	}
	for s, c := range su {
		if c > m.K || c != m.SenderUsed[s] {
			return false
		}
	}
	for r, c := range ru {
		if c > m.K || c != m.ReceiverUsed[r] {
			return false
		}
	}
	return true
}

// Project collapses the b-matching onto a unit Matching on g: each
// sender is paired with the neighbor it holds the most channels toward
// (ties to the lower receiver index), subject to one-to-one feasibility,
// processing senders in index order. Deterministic; the b-matcher rows
// use it so every matcher yields a comparable *Matching.
func (m *ChannelMatching) Project(g *Graph) *Matching {
	um := &Matching{
		SenderOf:   fillNeg(g.Receivers),
		ReceiverOf: fillNeg(g.Senders),
	}
	for s := 0; s < g.Senders; s++ {
		best, bestC := -1, 0
		for _, r := range g.Adj[s] {
			if um.SenderOf[r] >= 0 {
				continue
			}
			if c := m.Channels[[2]int{s, r}]; c > bestC {
				best, bestC = r, c
			}
		}
		if best >= 0 {
			um.SenderOf[best] = s
			um.ReceiverOf[s] = best
		}
	}
	return um
}

// channelReq is a request or grant for some channels on one edge.
type channelReq struct {
	peer int // the other endpoint
	want int
}

// channelMatch runs dcPIM's multi-channel matching (§3.4) for o.Rounds
// rounds with o.K channels per host. Receivers request channels from
// senders they have demand for; senders grant within their free budget;
// receivers accept within theirs. If o.Remaining is set, the first round
// orders grant and accept choices by smallest remaining bytes (the
// FCT-optimizing round); all other choices are uniform random.
//
// Options are taken literally (no defaulting): Rounds = 0 runs zero
// rounds. Invalid options (o.Validate() != nil) panic — the "dcpim-k"
// row's New returns them as an error before this core is reached. When
// st is non-nil it accumulates per-round accounting, as in runPIM.
func channelMatch(g *Graph, o Options, rng *rand.Rand, st *Stats) *ChannelMatching {
	if err := o.Validate(); err != nil {
		panic(fmt.Sprintf("matching: channelMatch: %v", err))
	}
	k := o.K
	m := &ChannelMatching{
		K:            k,
		Channels:     make(map[[2]int]int),
		SenderUsed:   make([]int, g.Senders),
		ReceiverUsed: make([]int, g.Receivers),
	}
	demand := o.Demand
	if demand == nil {
		demand = func(int, int) int { return k }
	}
	matched := 0 // running TotalChannels, kept incrementally for st

	for round := 0; round < o.Rounds; round++ {
		srpt := round == 0 && o.Remaining != nil

		// Request stage: receivers ask senders for channels. We iterate
		// sender-side for cache friendliness; requests[s] collects them.
		requests := make([][]channelReq, g.Senders)
		active := false
		var reqMsgs int64
		for s := 0; s < g.Senders; s++ {
			freeS := k - m.SenderUsed[s]
			if freeS <= 0 {
				continue
			}
			for _, r := range g.Adj[s] {
				freeR := k - m.ReceiverUsed[r]
				if freeR <= 0 {
					continue
				}
				want := demand(s, r) - m.Channels[[2]int{s, r}]
				if want <= 0 {
					continue
				}
				if want > freeR {
					want = freeR
				}
				requests[s] = append(requests[s], channelReq{peer: r, want: want})
				reqMsgs++
				active = true
			}
		}
		if !active {
			if st != nil {
				st.Converged = true
			}
			break
		}

		// Grant stage: each sender distributes its free channels over the
		// requests, in SRPT or random order.
		grants := make([][]channelReq, g.Receivers)
		var grantMsgs int64
		for s := 0; s < g.Senders; s++ {
			reqs := requests[s]
			if len(reqs) == 0 {
				continue
			}
			free := k - m.SenderUsed[s]
			order(reqs, rng, srpt, func(r int) int64 { return o.Remaining(s, r) })
			for _, rq := range reqs {
				if free <= 0 {
					break
				}
				give := rq.want
				if give > free {
					give = free
				}
				grants[rq.peer] = append(grants[rq.peer], channelReq{peer: s, want: give})
				grantMsgs++
				free -= give
			}
		}

		// Accept stage: each receiver accepts grants within its budget.
		var acceptMsgs int64
		for r := 0; r < g.Receivers; r++ {
			gs := grants[r]
			if len(gs) == 0 {
				continue
			}
			free := k - m.ReceiverUsed[r]
			order(gs, rng, srpt, func(s int) int64 { return o.Remaining(s, r) })
			for _, gr := range gs {
				if free <= 0 {
					break
				}
				take := gr.want
				if take > free {
					take = free
				}
				m.Channels[[2]int{gr.peer, r}] += take
				m.SenderUsed[gr.peer] += take
				m.ReceiverUsed[r] += take
				if take > 0 {
					acceptMsgs++
				}
				matched += take
				free -= take
			}
		}
		if st != nil {
			st.note(reqMsgs+grantMsgs+acceptMsgs, matched)
		}
	}
	if st != nil {
		st.MatchedChannels = matched
		st.K = k
	}
	return m
}

// order arranges reqs either by ascending remaining-bytes key (SRPT) or in
// a uniform random permutation.
func order(reqs []channelReq, rng *rand.Rand, srpt bool, key func(peer int) int64) {
	if srpt {
		// Insertion sort: request lists are short (node degree).
		for i := 1; i < len(reqs); i++ {
			for j := i; j > 0 && key(reqs[j].peer) < key(reqs[j-1].peer); j-- {
				reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
			}
		}
		return
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
}
