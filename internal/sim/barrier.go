package sim

import (
	"runtime"
	"sync/atomic"
)

// BarrierMode selects how a Group synchronizes its per-epoch barrier.
//
// The default, BarrierHybrid, replaces the original per-epoch channel
// round-trip with a spin-then-park handoff plus epoch batching: windows
// where at most one shard has work inside the barrier run entirely on
// the coordinator goroutine with zero cross-goroutine crossings. The
// legacy channel implementation is kept selectable so equivalence tests
// can drive both and assert byte-identical schedules and counters.
type BarrierMode uint8

const (
	// BarrierHybrid (default): per-worker padded command slots that
	// workers spin on briefly and then park behind, plus solo-epoch
	// inlining on the coordinator. One atomic store releases a worker;
	// one atomic decrement joins it.
	BarrierHybrid BarrierMode = iota
	// BarrierChannel: the original one-buffered-channel-per-worker +
	// WaitGroup handoff. Two goroutine wakeups per dispatched worker per
	// epoch. Retained as the reference implementation.
	BarrierChannel
)

func (m BarrierMode) String() string {
	switch m {
	case BarrierHybrid:
		return "hybrid"
	case BarrierChannel:
		return "channel"
	default:
		return "unknown"
	}
}

// barrierSpin bounds how many predicate checks a waiter performs before
// parking on its channel. Epochs are a few hundred simulated nanoseconds
// wide, so on a busy multi-core run the release usually lands within the
// spin window; on an oversubscribed or single-core box the Gosched every
// 16 checks keeps the spin from starving the goroutine holding the work.
const barrierSpin = 256

// workerSlot is one worker's half of the hybrid barrier. The coordinator
// owns seq/until between epochs; cmd/parked are the only cross-goroutine
// fields. The pad keeps neighbouring slots out of one cache line so a
// worker spinning on its own cmd never bounces another worker's line.
type workerSlot struct {
	cmd    atomic.Uint64 // last released command number (monotonic)
	parked atomic.Int32  // 1 while the waiter may be blocked on wake
	until  Time          // barrier target; written before cmd, read after
	seq    uint64        // coordinator-side: next command number to issue
	wake   chan struct{} // park/unpark token channel, capacity 1
	_      [64]byte
}

// release publishes barrier target t as command n and unparks the worker
// if it already went to sleep. The plain until write is ordered by the
// atomic cmd store (release) / load (acquire) pair in await.
func (s *workerSlot) release(n uint64, t Time) {
	s.until = t
	s.cmd.Store(n)
	if s.parked.Swap(0) == 1 {
		s.wake <- struct{}{}
	}
}

// await blocks until command n has been released and returns its barrier
// target. Spin-then-park: a bounded predicate spin, then a parked flag +
// re-check + channel receive. The flag protocol cannot lose a wakeup:
// whichever side swaps the 1 out of parked owns the token — if release
// wins it sends one token, and the waiter (seeing its own swap return 0)
// drains it; if the waiter wins there is no token in flight.
//
// It can deliver a stale one. release stores cmd and only then swaps the
// flag; a waiter that saw the store while spinning can finish the epoch
// and park for the next command before that swap lands, which then takes
// the new flag and sends a token for the old command. So a token proves
// nothing: every wake re-checks the predicate and parks again if it does
// not hold. Each raised flag is answered by at most one token and the
// waiter consumes it before raising the flag again, so the capacity-1
// channel never blocks a sender.
func (s *workerSlot) await(n uint64) Time {
	for i := 0; i < barrierSpin; i++ {
		if s.cmd.Load() >= n {
			return s.until
		}
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
	for {
		s.parked.Store(1)
		if s.cmd.Load() >= n {
			if s.parked.Swap(0) == 0 {
				<-s.wake // release consumed our flag; its token is in flight
			}
			return s.until
		}
		<-s.wake
		if s.cmd.Load() >= n {
			return s.until
		}
	}
}

// joinBarrier is the coordinator's half of epoch completion: remaining
// counts dispatched workers still running, and the coordinator parks
// behind the same flag protocol the workers use.
type joinBarrier struct {
	remaining atomic.Int32
	parked    atomic.Int32
	wake      chan struct{}
}

// done is called by a worker arriving at the barrier; the last arrival
// unparks the coordinator.
func (j *joinBarrier) done() {
	if j.remaining.Add(-1) == 0 {
		if j.parked.Swap(0) == 1 {
			j.wake <- struct{}{}
		}
	}
}

// wait blocks the coordinator until every dispatched worker has arrived.
// Like await it re-checks after every wake: the last arrival of one epoch
// can send its token after the coordinator, having seen remaining hit 0
// while spinning, has already parked for the next.
func (j *joinBarrier) wait() {
	for i := 0; i < barrierSpin; i++ {
		if j.remaining.Load() == 0 {
			return
		}
		if i&15 == 15 {
			runtime.Gosched()
		}
	}
	for {
		j.parked.Store(1)
		if j.remaining.Load() == 0 {
			if j.parked.Swap(0) == 0 {
				<-j.wake
			}
			return
		}
		<-j.wake
		if j.remaining.Load() == 0 {
			return
		}
	}
}
