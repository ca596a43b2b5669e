package sim

import (
	"math/rand"
	"testing"
)

// refSource is rand.NewSource(seed) with a draw count beside it.
type refSource struct {
	rand.Source64
	n uint64
}

func (r *refSource) Int63() int64   { r.n++; return r.Source64.Int63() }
func (r *refSource) Uint64() uint64 { r.n++; return r.Source64.Uint64() }

func newRef(seed int64) *refSource {
	return &refSource{Source64: rand.NewSource(seed).(rand.Source64)}
}

// specialSeeds are those math/rand's seeding treats specially: 0,
// negatives, multiples of 2³¹−1 and the seed 0 stands for.
var specialSeeds = []int64{0, -1, 1, 89482311, lehmerM, -lehmerM, 2 * lehmerM, 7 * lehmerM,
	lehmerM - 1, lehmerM + 1, -lehmerM - 1, 1<<63 - 1, -1 << 63}

// matchSeeds returns specialSeeds followed by random int64s, n in all.
func matchSeeds(n int) []int64 {
	seeds := append([]int64(nil), specialSeeds...)
	g := rand.New(rand.NewSource(20221))
	for len(seeds) < n {
		seeds = append(seeds, int64(g.Uint64()))
	}
	return seeds
}

// TestCountingSourceMatchesMathRand checks the lazy prefix, the switch to
// the materialised source and the draws after it against rand.NewSource,
// through every rand.Rand method the simulator's streams feed.
func TestCountingSourceMatchesMathRand(t *testing.T) {
	// Draw budgets around the end of the lazy prefix (273) and the first
	// wrap of the register (607), then random ones up to 1,300.
	budgets := []int{0, 1, 272, 273, 274, 606, 607, 608, 1300}
	g := rand.New(rand.NewSource(44))
	for i, seed := range matchSeeds(220) {
		budget := g.Intn(1301)
		switch j := i - len(specialSeeds); {
		case j < 0:
			budget = 1300
		case j < len(budgets):
			budget = budgets[j]
		}
		ref := newRef(seed)
		got := NewCountingSource(seed)
		want, have := rand.New(ref), rand.New(got)
		sawLazy, sawBuilt := budget == 0, false
		for ref.n < uint64(budget) {
			op := g.Intn(4)
			if uint64(budget)-ref.n <= 32 {
				// Int63n can reject several draws in a row; finish on
				// one-draw methods to land on the budget.
				op = int(ref.n % 2)
			}
			switch op {
			case 0:
				if a, b := want.Int63(), have.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, ref.n, b, a)
				}
			case 1:
				if a, b := want.Uint64(), have.Uint64(); a != b {
					t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, ref.n, b, a)
				}
			case 2:
				if g.Intn(2) == 0 {
					n := 1 + g.Intn(1000)
					if a, b := want.Intn(n), have.Intn(n); a != b {
						t.Fatalf("seed %d draw %d: Intn(%d) %d, want %d", seed, ref.n, n, b, a)
					}
					break
				}
				n := 1<<62 + g.Int63n(1<<61) // rejects about a third of its draws
				if a, b := want.Int63n(n), have.Int63n(n); a != b {
					t.Fatalf("seed %d draw %d: Int63n(%d) %d, want %d", seed, ref.n, n, b, a)
				}
			case 3:
				if a, b := want.Float64(), have.Float64(); a != b {
					t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, ref.n, b, a)
				}
			}
			if got.Draws() != ref.n {
				t.Fatalf("seed %d: Draws() = %d after %d draws", seed, got.Draws(), ref.n)
			}
			if ref.n <= regTap {
				sawLazy = true
			} else {
				sawBuilt = true
			}
		}
		if ref.n != uint64(budget) {
			t.Fatalf("seed %d: drew %d values, want %d", seed, ref.n, budget)
		}
		if !sawLazy || (budget > regTap && !sawBuilt) {
			t.Fatalf("seed %d, %d draws: lazy %v, built %v", seed, budget, sawLazy, sawBuilt)
		}
		// Reseeding restarts both sides at a fresh stream.
		reseed := seed ^ 0x5bd1e995
		want.Seed(reseed)
		have.Seed(reseed)
		if got.Draws() != 0 {
			t.Fatalf("seed %d: Draws() = %d after Seed", seed, got.Draws())
		}
		for k := 0; k < 300; k++ {
			if a, b := want.Uint64(), have.Uint64(); a != b {
				t.Fatalf("seed %d reseeded to %d, draw %d: %d, want %d", seed, reseed, k, b, a)
			}
		}
	}
}

// TestCountingSourceFirstDrawsAllocateNothing pins where the stream
// switches over: 273 draws run on the cursors alone, the 274th builds
// math/rand's source.
func TestCountingSourceFirstDrawsAllocateNothing(t *testing.T) {
	var c CountingSource
	draw := func(n int) func() {
		return func() {
			c.Seed(12345)
			for k := 0; k < n; k++ {
				c.Uint64()
			}
		}
	}
	if a := testing.AllocsPerRun(20, draw(regTap)); a != 0 {
		t.Fatalf("%d draws allocated %v times per stream, want 0", regTap, a)
	}
	if a := testing.AllocsPerRun(20, draw(regTap+1)); a == 0 {
		t.Fatalf("%d draws allocated nothing: the source was never built", regTap+1)
	}
}

func FuzzCountingSource(f *testing.F) {
	for _, seed := range specialSeeds {
		for _, n := range []uint16{0, regTap, regTap + 1, regLen + 1, 2000} {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		ref := rand.NewSource(seed).(rand.Source64)
		c := NewCountingSource(seed)
		for k := 0; k < int(n); k++ {
			if k%3 == 0 {
				if a, b := ref.Int63(), c.Int63(); a != b {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, k, b, a)
				}
			} else if a, b := ref.Uint64(), c.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, k, b, a)
			}
		}
		if c.Draws() != uint64(n) {
			t.Fatalf("seed %d: Draws() = %d, want %d", seed, c.Draws(), n)
		}
	})
}
