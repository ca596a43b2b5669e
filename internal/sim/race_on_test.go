//go:build race

package sim

// raceEnabled reports whether the race detector is on. Under -race,
// sync.Pool deliberately drops items to widen race coverage, so
// allocation-count assertions do not hold.
const raceEnabled = true
