package experiments

import "time"

// WallTimer is the one sanctioned bridge between internal/ code and the
// host's wall clock: it returns a func that reports the wall time elapsed
// since the WallTimer call. Hosts of the experiment binaries use it for
// progress reporting; nothing on the simulation path may read the wall
// clock (sim.Time is the only clock there; a read that reached it would
// break every golden digest), so host-side timing concentrates here
// instead of spreading time.Now calls through the packages.
func WallTimer() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}
