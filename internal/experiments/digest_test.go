package experiments

import (
	"math/rand"
	"testing"
)

// fnvMixBytes is the reference fnvMix is an optimisation of: FNV-1a over
// all eight bytes of w, low byte first.
func fnvMixBytes(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	return h
}

// TestFnvMixMatchesByteLoop: skipping the zero high bytes of a word and
// multiplying once by the matching power of the prime is the eight-step
// fold, for words of every byte length — zero, all eight bytes set, a lone
// top byte — and from any running hash. Every golden digest in the tree
// rests on this.
func TestFnvMixMatchesByteLoop(t *testing.T) {
	words := []uint64{0, 1, 0xff, 0x100, 0xffff, 1 << 56, ^uint64(0), 0x0102030405060708, 0x8000000000000000}
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 200_000; i++ {
		// Every byte length equally often, then a uniform word.
		words = append(words, rng.Uint64()>>(8*uint(rng.Intn(8))), rng.Uint64())
	}
	h := fnvOffset
	for _, w := range words {
		got, want := fnvMix(h, w), fnvMixBytes(h, w)
		if got != want {
			t.Fatalf("fnvMix(%#x, %#x) = %#x, byte loop gives %#x", h, w, got, want)
		}
		h = want // chain, so the running hash varies too
	}
}
