package core

// Compact per-flow state. A 1024-host run at high load holds 10^4–10^6
// concurrent flows, so per-flow footprint is a first-order memory cost:
// the per-packet bookkeeping is packed to 1 bit (sender sent-marks) and
// 2 bits (receiver packet states) per sequence number instead of one
// bool/byte each, and flow records recycle through per-host free lists
// so steady state allocates nothing per flow beyond what must outlive it
// (the completion record and the done-flow id). The measured budget is
// enforced by TestSteadyStateBytesPerFlow and recorded in DESIGN.md §13.

// bitset is a packed bit vector (sender-side sent marks).
type bitset []uint64

// grow returns a zeroed bitset able to hold n bits, reusing b's backing
// array when it is large enough.
func (b bitset) grow(n int) bitset {
	w := (n + 63) >> 6
	if cap(b) >= w {
		b = b[:w]
		for i := range b {
			b[i] = 0
		}
		return b
	}
	return make(bitset, w)
}

func (b bitset) get(i int) bool { return b[i>>6]>>(uint(i)&63)&1 != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }

// fifo is a first-in, first-out queue that keeps its backing array. A pop
// advances head rather than reslicing the front away (x = x[1:] strands
// the popped slots, so append reallocates once the tail reaches the end
// however short the queue is), and a push that finds the array full
// slides the live entries down first when at least half of it has been
// popped. The array therefore grows only while the queue itself does,
// to at most four times its longest length, and a queue at steady length
// allocates nothing.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// front returns the oldest entry; the queue must not be empty.
func (q *fifo[T]) front() T { return q.buf[q.head] }

// live returns the queued entries, oldest first, in place.
func (q *fifo[T]) live() []T { return q.buf[q.head:] }

// pop removes and returns the oldest entry; the queue must not be empty.
func (q *fifo[T]) pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return x
}

func (q *fifo[T]) push(x T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	//lint:ignore hotalloc grows only while the queue's length does: pops leave their slots to later pushes (fifo)
	q.buf = append(q.buf, x)
}

// truncate keeps the n oldest entries, for a caller that compacted
// live() in place.
func (q *fifo[T]) truncate(n int) {
	clear(q.buf[q.head+n:])
	q.buf = q.buf[:q.head+n]
	if n == 0 {
		q.buf, q.head = q.buf[:0], 0
	}
}

// reset empties the queue, keeping its array.
func (q *fifo[T]) reset() { q.truncate(0) }

// twoBits is a packed 2-bit-per-entry vector (receiver-side seq states:
// seqUntokened/seqTokened/seqReceived).
type twoBits []uint64

// grow returns a zeroed vector able to hold n entries, reusing t's
// backing array when large enough. Zero is seqUntokened, the initial
// state of every sequence number.
//
//lint:coldpath amortized slab growth; recycled backing arrays make steady state zero-alloc once the largest flow shape has been seen
func (t twoBits) grow(n int) twoBits {
	w := (n + 31) >> 5
	if cap(t) >= w {
		t = t[:w]
		for i := range t {
			t[i] = 0
		}
		return t
	}
	return make(twoBits, w)
}

func (t twoBits) get(i int) uint8 {
	return uint8(t[i>>5] >> ((uint(i) & 31) * 2) & 3)
}

func (t twoBits) set(i int, v uint8) {
	sh := (uint(i) & 31) * 2
	w := &t[i>>5]
	*w = *w&^(3<<sh) | uint64(v)<<sh
}

// newSendFlow takes a recycled record from the sender's free list, or
// makes one. Slices keep their backing arrays across recycles, so a
// host's flow churn settles into zero-allocation steady state once the
// largest flow shape has been seen.
func (s *sender) newSendFlow() *sendFlow {
	if n := len(s.freeFlows); n > 0 {
		f := s.freeFlows[n-1]
		s.freeFlows[n-1] = nil
		s.freeFlows = s.freeFlows[:n-1]
		return f
	}
	return &sendFlow{}
}

// recycleSendFlow cancels every timer that could still reference f —
// after this no live closure can observe the record — resets it, and
// returns it to the free list.
//
//lint:coldpath runs once per flow completion; the free-list append reuses capacity after warmup
func (s *sender) recycleSendFlow(f *sendFlow) {
	f.notifTimer.Cancel()
	f.finTimer.Cancel()
	f.burstTimer.Cancel()
	sent := f.sent
	*f = sendFlow{sent: sent}
	s.freeFlows = append(s.freeFlows, f)
}

// newRecvFlow takes a recycled record from the receiver's free list, or
// makes one.
//
//lint:coldpath runs once per flow arrival; the free list covers steady state, allocating only while flow concurrency grows
func (r *receiver) newRecvFlow() *recvFlow {
	if n := len(r.freeFlows); n > 0 {
		f := r.freeFlows[n-1]
		r.freeFlows[n-1] = nil
		r.freeFlows = r.freeFlows[:n-1]
		return f
	}
	return &recvFlow{}
}

// recycleRecvFlow cancels the short-flow recovery timer (the only
// closure that can outlive the flow), resets the record keeping slice
// backings, and returns it to the free list.
//
//lint:coldpath runs once per flow completion; the free-list append reuses capacity after warmup
func (r *receiver) recycleRecvFlow(f *recvFlow) {
	f.recoverTimer.Cancel()
	f.tokened.reset()
	f.retx.reset()
	state, tokened, retx := f.state, f.tokened, f.retx
	*f = recvFlow{state: state, tokened: tokened, retx: retx}
	r.freeFlows = append(r.freeFlows, f)
}
