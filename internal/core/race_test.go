//go:build race

package core

// Under -race, sync.Pool deliberately drops items to widen race
// coverage, so allocation-count assertions do not hold.
func init() { raceEnabled = true }
