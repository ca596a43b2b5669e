package sim

import "math/rand"

// The lazy prefix of a CountingSource stream.
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word register: each draw steps two indices, feed and tap, down by
// one (modulo 607, from 334 and 0), stores vec[feed]+vec[tap] at feed and
// returns it. The first word a draw overwrites is read again as a tap at
// draw 274, so draws k = 1..273 read only words seeding wrote:
//
//	draw k = vec[334−k] + vec[607−k]
//
// Seeding writes word i as
//
//	vec[i] = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ cooked[i]
//
// where x[j] = s·48271^j mod (2³¹−1) is the Lehmer (MINSTD) sequence from
// the normalised seed s (the seed modulo 2³¹−1, taken non-negative) and
// cooked is a fixed table. So the first 273 draws need two cursors into x,
// each walking backwards three steps per word, plus cooked, which init
// recovers from one public stream instead of copying it. A stream that
// draws a 274th value builds the real source and replays its prefix
// (CountingSource.materialise); so does every draw of a seed that
// normalises to 0, which math/rand replaces by a seed of its own.
const (
	regLen  = 607             // words in math/rand's register
	regTap  = 273             // lag between feed and tap: the lazy draws
	regFeed = regLen - regTap // feed index before the first draw
	lehmerA = 48271
	lehmerM = 1<<31 - 1
	// x indices of the top entries (x[23+3i]) of the first draw's words
	feedTop = 23 + 3*(regFeed-1)
	tapTop  = 23 + 3*(regLen-1)
)

var (
	back      = powMod(lehmerA, lehmerM-2) // A⁻¹: one step back along x
	feedStart = powMod(lehmerA, feedTop)
	tapStart  = powMod(lehmerA, tapTop)
	cooked    = recoverCooked()
)

// powMod returns a^e mod lehmerM.
func powMod(a, e uint64) uint64 {
	r := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			r = r * a % lehmerM
		}
		a = a * a % lehmerM
	}
	return r
}

// cursors returns the feed and tap cursors of seed's first draw, or zeros
// when seed normalises to 0, which math/rand replaces by a seed of its own.
func cursors(seed int64) (feed, tap uint32) {
	s := seed % lehmerM
	if s < 0 {
		s += lehmerM
	}
	return uint32(uint64(s) * feedStart % lehmerM), uint32(uint64(s) * tapStart % lehmerM)
}

// seedOf returns the normalised seed of a stream whose feed cursor is
// feed after n lazy draws: the cursor is then x[feedTop−3n].
func seedOf(feed uint32, n uint64) int64 {
	return int64(uint64(feed) * powMod(back, feedTop-3*n) % lehmerM)
}

// word returns the Lehmer part of the register word whose top entry is *x
// and moves *x to the top entry of the word below it.
func word(x *uint32) uint64 {
	x2 := uint64(*x)
	x1 := x2 * back % lehmerM
	x0 := x1 * back % lehmerM
	*x = uint32(x0 * back % lehmerM)
	return x0<<40 ^ x1<<20 ^ x2
}

// recoverCooked solves seed 1's register from its first 607 draws and
// strips the Lehmer part from each word. Draws 274..607 each read one
// unwritten word and the value draw k−273 stored; draws 1..273 then read
// two unwritten words, one of them already solved.
func recoverCooked() (c [regLen]uint64) {
	src := rand.NewSource(1).(rand.Source64)
	var out [regLen + 1]uint64 // out[k] is draw k
	for k := 1; k <= regLen; k++ {
		out[k] = src.Uint64()
	}
	var vec [regLen]uint64
	for k := regTap + 1; k <= regLen; k++ {
		vec[(regFeed-k+regLen)%regLen] = out[k] - out[k-regTap]
	}
	for k := 1; k <= regTap; k++ {
		vec[regFeed-k] = out[k] - vec[regLen-k]
	}
	_, x := cursors(1)
	for i := regLen - 1; i >= 0; i-- {
		c[i] = vec[i] ^ word(&x)
	}
	return c
}
