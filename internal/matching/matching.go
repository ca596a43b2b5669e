// Package matching implements Parallel Iterative Matching (PIM) on
// bipartite demand graphs, plus the bounded-round, multi-channel variant
// dcPIM builds on, in pure algorithmic form (no packets, no clocks). It is
// the testable embodiment of the paper's §2 and Theorem 1: the transport
// in internal/core realizes the same logic with control packets and stage
// timers.
//
// Every algorithm is reached through one table of matchers, resolved by
// name (Lookup/MustLookup/Names): classic PIM, dcPIM's bounded-round
// matcher, the greedy maximal reference, the multi-channel b-matcher,
// communication-budget matching (arXiv 2604.10744) and online dynamic
// b-matching (arXiv 2006.10692). Each is a Matcher built from validated
// Options, returning a Matching plus convergence/communication Stats.
package matching

import (
	"fmt"
	"math"
	"math/rand"
)

// Graph is a bipartite demand graph: edge (s, r) means sender s has
// outstanding data for receiver r.
type Graph struct {
	Senders   int
	Receivers int
	Adj       [][]int // Adj[s] = sorted receiver indices
}

// NewGraph builds a graph and validates the adjacency.
func NewGraph(senders, receivers int, adj [][]int) (*Graph, error) {
	if len(adj) != senders {
		return nil, fmt.Errorf("matching: adj has %d rows, want %d", len(adj), senders)
	}
	for s, rs := range adj {
		seen := make(map[int]bool, len(rs))
		for _, r := range rs {
			if r < 0 || r >= receivers {
				return nil, fmt.Errorf("matching: sender %d has bad receiver %d", s, r)
			}
			if seen[r] {
				return nil, fmt.Errorf("matching: sender %d has duplicate edge to %d", s, r)
			}
			seen[r] = true
		}
	}
	return &Graph{Senders: senders, Receivers: receivers, Adj: adj}, nil
}

// SparseRandomGraph generates a sparse bipartite graph where each
// possible edge exists independently with probability
// avgDegree/receivers, giving expected sender degree avgDegree — the
// sparse-traffic-matrix regime of Theorem 1. It runs in O(edges) by
// drawing geometric gaps between successive present edges instead of
// one coin per possible edge, which is what makes 10^5-port sweep cells
// affordable.
func SparseRandomGraph(rng *rand.Rand, senders, receivers int, avgDegree float64) *Graph {
	p := avgDegree / float64(receivers)
	if p >= 1 {
		return DenseGraph(senders, receivers)
	}
	adj := make([][]int, senders)
	if p <= 0 {
		return &Graph{Senders: senders, Receivers: receivers, Adj: adj}
	}
	logq := math.Log1p(-p) // log(1-p) < 0
	for s := range adj {
		r := 0
		for {
			// Geometric gap: number of absent edges before the next
			// present one, Floor(log(1-U)/log(1-p)).
			gap := math.Floor(math.Log1p(-rng.Float64()) / logq)
			if gap >= float64(receivers-r) {
				break
			}
			r += int(gap)
			adj[s] = append(adj[s], r)
			r++
			if r >= receivers {
				break
			}
		}
	}
	return &Graph{Senders: senders, Receivers: receivers, Adj: adj}
}

// DenseGraph returns the complete bipartite graph (the switch-fabric
// worst case and the paper's Fig. 4c dense traffic matrix).
func DenseGraph(senders, receivers int) *Graph {
	adj := make([][]int, senders)
	for s := range adj {
		adj[s] = make([]int, receivers)
		for r := 0; r < receivers; r++ {
			adj[s][r] = r
		}
	}
	return &Graph{Senders: senders, Receivers: receivers, Adj: adj}
}

// Edges returns the number of edges.
func (g *Graph) Edges() int {
	n := 0
	for _, rs := range g.Adj {
		n += len(rs)
	}
	return n
}

// AvgDegree returns the average sender degree δ̄.
func (g *Graph) AvgDegree() float64 {
	if g.Senders == 0 {
		return 0
	}
	return float64(g.Edges()) / float64(g.Senders)
}

// Matching is a one-to-one assignment. SenderOf[r] is the sender matched
// to receiver r (-1 if unmatched) and ReceiverOf[s] the converse.
type Matching struct {
	SenderOf   []int
	ReceiverOf []int
}

// Size returns the number of matched pairs.
func (m *Matching) Size() int {
	n := 0
	for _, s := range m.SenderOf {
		if s >= 0 {
			n++
		}
	}
	return n
}

// Valid reports whether m is a matching on g: consistent inverse maps and
// every matched pair an actual edge.
func (m *Matching) Valid(g *Graph) bool {
	if len(m.SenderOf) != g.Receivers || len(m.ReceiverOf) != g.Senders {
		return false
	}
	for r, s := range m.SenderOf {
		if s < 0 {
			continue
		}
		if s >= g.Senders || m.ReceiverOf[s] != r {
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
	}
	for s, r := range m.ReceiverOf {
		if r >= 0 && (r >= g.Receivers || m.SenderOf[r] != s) {
			return false
		}
	}
	return true
}

// runPIM is the three-stage PIM loop behind the pim and dcpim rows:
// unmatched senders request every unmatched neighbor, each unmatched
// receiver grants one request uniformly at random, and each sender
// accepts one received grant uniformly at random. When st is non-nil it
// accumulates per-round accounting (rounds, control messages, cumulative
// sizes); the accounting never draws from rng, so instrumented and plain
// runs produce identical matchings for the same seed.
func runPIM(g *Graph, rounds int, rng *rand.Rand, st *Stats) *Matching {
	m := &Matching{
		SenderOf:   fillNeg(g.Receivers),
		ReceiverOf: fillNeg(g.Senders),
	}
	grants := make([][]int, g.Senders) // grants[s] = receivers granting s
	for round := 0; round < rounds; round++ {
		// Request + grant stage: each unmatched receiver collects its
		// incident requests and grants one. Building receiver-side request
		// lists explicitly keeps the random choice uniform.
		requests := make([][]int, g.Receivers)
		active := false
		var reqMsgs int64
		for s := 0; s < g.Senders; s++ {
			if m.ReceiverOf[s] >= 0 {
				continue
			}
			for _, r := range g.Adj[s] {
				if m.SenderOf[r] < 0 {
					requests[r] = append(requests[r], s)
					reqMsgs++
					active = true
				}
			}
		}
		if !active {
			// Converged: maximal matching reached. The probe round that
			// observes it sends no messages and is not counted.
			if st != nil {
				st.Converged = true
			}
			break
		}
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
		// Accept stage.
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
		if st != nil {
			st.note(reqMsgs+grantMsgs+acceptMsgs, m.Size())
		}
	}
	return m
}

// convergenceRounds is the round budget that makes PIM non-convergence
// vanishingly unlikely on an n-port graph: PIM resolves ≥ 3/4 of requests
// per round in expectation, so 4·log₂(n)+8 rounds suffice, and the
// early-exit in runPIM stops as soon as the matching is maximal.
func convergenceRounds(g *Graph) int {
	n := g.Senders
	if g.Receivers > n {
		n = g.Receivers
	}
	return 4*int(math.Ceil(math.Log2(float64(n+1)))) + 8
}

// maximalMatch returns a deterministic greedy maximal matching: each
// sender in index order takes its first still-free neighbor. Like every
// maximal matching it is a ≥1/2 approximation of the maximum matching —
// the maximal row's centralized reference (zero control-plane cost, no
// randomness).
func maximalMatch(g *Graph) *Matching {
	m := &Matching{
		SenderOf:   fillNeg(g.Receivers),
		ReceiverOf: fillNeg(g.Senders),
	}
	for s := 0; s < g.Senders; s++ {
		for _, r := range g.Adj[s] {
			if m.SenderOf[r] < 0 {
				m.SenderOf[r] = s
				m.ReceiverOf[s] = r
				break
			}
		}
	}
	return m
}

// TheoremBound returns Theorem 1's guaranteed fraction of M* that dcPIM
// reaches after r rounds on a graph with average degree delta when PIM's
// converged matching has size n/alpha: 1 − delta·alpha/4^r (clamped ≥ 0).
func TheoremBound(delta, alpha float64, r int) float64 {
	b := 1 - delta*alpha/math.Pow(4, float64(r))
	if b < 0 {
		return 0
	}
	return b
}

func fillNeg(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = -1
	}
	return xs
}
