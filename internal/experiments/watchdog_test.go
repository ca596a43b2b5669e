package experiments

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"
)

// watchdog bounds a test that runs a fabric on more than one shard: if
// the test is still running after limit, the binary dies with the test's
// name and the stack of every goroutine — a lost wake-up at the epoch
// barrier shows its stuck shards within a minute or two instead of at
// `go test`'s ten. The sim and netsim packages guard their sharded tests
// the same way but run the body on a side goroutine and fail just that
// test; the tests here call t.Fatal and t.Run, which must stay on the
// test's own goroutine, so the guard is a timer beside it and the whole
// binary stops — after a hung barrier nothing later in it is worth
// running. Limits are several times what the slowest CI leg (-race on a
// hosted runner) needs.
func watchdog(t *testing.T, limit time.Duration) {
	t.Helper()
	name := t.Name()
	timer := time.AfterFunc(limit, func() {
		debug.SetTraceback("all")
		panic(fmt.Sprintf("%s: no return within %v", name, limit))
	})
	t.Cleanup(func() { timer.Stop() })
}
