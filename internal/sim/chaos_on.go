//go:build groupchaos

package sim

import (
	"runtime"
	"sync/atomic"
	"time"
)

// chaosDraws numbers the hand-offs of a groupchaos build; each one's
// perturbation is a hash of its number.
var chaosDraws atomic.Uint64

// chaosSink is what a held P increments, so the loop is not optimized away.
var chaosSink atomic.Uint64

// chaos perturbs the schedule at a hand-off — a post, a worker taking one,
// a finish, either side about to block — so the tests reach the
// interleavings a quiet machine rarely produces: a worker descheduled
// between its last poll and its parking, a coordinator that posts while
// the worker is still finishing. Of 1024
// hand-offs, one sleeps (a timer: a millisecond on one P, whatever was
// asked, so kept rare enough for the tests' watchdogs); of the rest, a
// quarter each pass untouched, yield the P once, yield it several times,
// or hold it for a few microseconds.
func chaos() {
	h := chaosDraws.Add(1) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	switch r := h % 1024; {
	case r == 1023:
		//lint:ignore wallclock a groupchaos build perturbs the host schedule on purpose; it never reaches simulated time
		time.Sleep(time.Duration(1+(h>>10)%20) * time.Microsecond)
	case r >= 768:
		for i := uint64(0); i < 1000+(h>>10)%4000; i++ {
			chaosSink.Add(1)
		}
	case r >= 512:
		for i := uint64(0); i < 2+(h>>8)%4; i++ {
			runtime.Gosched()
		}
	case r >= 256:
		runtime.Gosched()
	}
}
