package flowtrack

import (
	"testing"
	"testing/quick"

	"dcpim/internal/packet"
)

func rxFor(size int64) *Rx {
	p := &packet.Packet{Flow: 1, Src: 2, FlowSize: size}
	return NewRx(p)
}

func TestRxLifecycle(t *testing.T) {
	f := rxFor(3 * packet.PayloadSize)
	if f.Npkts != 3 || f.NeededCnt() != 3 {
		t.Fatalf("npkts=%d needed=%d", f.Npkts, f.NeededCnt())
	}
	if s := f.NextNeeded(); s != 0 {
		t.Fatalf("NextNeeded = %d, want 0", s)
	}
	f.Grant(0)
	if f.Outstanding != 1 || f.NextNeeded() != 1 {
		t.Fatalf("after grant: outstanding=%d next=%d", f.Outstanding, f.NextNeeded())
	}
	if got := f.MarkReceived(0, packet.MTU); got != packet.PayloadSize {
		t.Fatalf("payload = %d", got)
	}
	if f.Outstanding != 0 {
		t.Fatal("outstanding not decremented")
	}
	// Duplicate is ignored.
	if got := f.MarkReceived(0, packet.MTU); got != 0 {
		t.Fatal("duplicate counted")
	}
	f.MarkReceived(1, packet.MTU)
	f.MarkReceived(2, packet.MTU)
	if !f.Done || f.Remaining() != 0 {
		t.Fatalf("done=%v remaining=%d", f.Done, f.Remaining())
	}
}

func TestRxRevertStale(t *testing.T) {
	f := rxFor(5 * packet.PayloadSize)
	for i := 0; i < 4; i++ {
		f.Grant(f.NextNeeded())
	}
	f.MarkReceived(1, packet.MTU)
	// Seqs 0,2,3 are granted-unreceived; 4 still needed.
	if n := f.RevertStale(f.Npkts); n != 3 {
		t.Fatalf("reverted %d, want 3", n)
	}
	if f.Outstanding != 0 {
		t.Fatalf("outstanding = %d", f.Outstanding)
	}
	// Reverted seqs come back first, lowest first.
	if s := f.NextNeeded(); s != 0 {
		t.Fatalf("next = %d, want 0 (retx first)", s)
	}
	f.Grant(0)
	if s := f.NextNeeded(); s != 2 {
		t.Fatalf("next = %d, want 2", s)
	}
}

// TestRxNextNeeded: re-requests come before fresh seqs, in the order
// they were reverted, and NextNeeded skips whatever is no longer Needed —
// granted, received, or reverted and received since.
func TestRxNextNeeded(t *testing.T) {
	for _, c := range []struct {
		name string
		do   func(f *Rx)
		want int
	}{
		{"fresh", func(f *Rx) {}, 0},
		{"candidate order", func(f *Rx) {
			f.MarkReceived(0, packet.MTU)
			f.Grant(1)
		}, 2},
		{"reverted seq first", func(f *Rx) {
			f.MarkReceived(0, packet.MTU)
			f.Grant(1)
			f.Revert(1)
		}, 1},
		{"reverted seq received since", func(f *Rx) {
			f.MarkReceived(0, packet.MTU)
			f.Grant(1)
			f.Revert(1)
			f.MarkReceived(1, packet.MTU)
		}, 2},
		{"revert order", func(f *Rx) {
			for seq := 0; seq < 4; seq++ {
				f.Grant(seq)
			}
			f.Revert(3)
			f.Revert(1)
		}, 3},
		{"granting the oldest re-request", func(f *Rx) {
			for seq := 0; seq < 4; seq++ {
				f.Grant(seq)
			}
			f.Revert(3)
			f.Revert(1)
			f.Grant(f.NextNeeded())
		}, 1},
		{"re-reverted seq goes to the back", func(f *Rx) {
			for seq := 0; seq < 4; seq++ {
				f.Grant(seq)
			}
			f.Revert(3)
			f.Revert(1)
			f.Grant(3)
			f.Revert(3)
		}, 1},
		{"revert of an ungranted seq", func(f *Rx) { f.Revert(2) }, 0},
		{"all granted", func(f *Rx) {
			for seq := 0; seq < f.Npkts; seq++ {
				f.Grant(seq)
			}
		}, -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := rxFor(6 * packet.PayloadSize)
			c.do(f)
			if got := f.NextNeeded(); got != c.want {
				t.Fatalf("NextNeeded = %d, want %d", got, c.want)
			}
		})
	}
}

// TestRxReset: a record started over as another flow keeps its arrays
// and forgets every seq state and re-request of the flow before.
func TestRxReset(t *testing.T) {
	f := rxFor(80 * packet.PayloadSize)
	for seq := 0; seq < f.Npkts; seq += 2 {
		f.Grant(seq)
		f.MarkReceived(seq+1, packet.MTU)
	}
	f.RevertStale(f.Npkts)
	state := &f.state[0]
	f.Reset(&packet.Packet{Flow: 2, Src: 3, FlowSize: 40 * packet.PayloadSize})
	if &f.state[0] != state {
		t.Error("Reset made a new state array for a smaller flow")
	}
	if f.ID != 2 || f.Npkts != 40 || f.Outstanding != 0 || f.RecvCnt != 0 || f.MaxReceived != -1 || f.Done {
		t.Fatalf("Reset left %+v", *f)
	}
	for seq := 0; seq < f.Npkts; seq++ {
		if f.State(seq) != Needed {
			t.Fatalf("seq %d is %d after Reset, want Needed", seq, f.State(seq))
		}
	}
	if s := f.NextNeeded(); s != 0 {
		t.Fatalf("NextNeeded = %d after Reset, want 0 (no re-request survives)", s)
	}
}

func TestRxSkipGrant(t *testing.T) {
	f := rxFor(10 * packet.PayloadSize)
	for i := 0; i < 3; i++ {
		f.SkipGrant(i) // unscheduled prefix
	}
	if s := f.NextNeeded(); s != 3 {
		t.Fatalf("next = %d, want 3 (prefix skipped)", s)
	}
	// Unreceived unscheduled packets revert like anything else.
	f.MarkReceived(0, packet.MTU)
	if n := f.RevertStale(2); n != 2 {
		t.Fatalf("reverted %d, want 2", n)
	}
}

func TestRxTrimmedDelivery(t *testing.T) {
	f := rxFor(2 * packet.PayloadSize)
	// A trimmed packet (header only) contributes zero payload and must
	// not complete the flow.
	if got := f.MarkReceived(0, packet.HeaderSize); got != 0 {
		t.Fatalf("trimmed payload = %d", got)
	}
	if f.Done {
		t.Fatal("flow done after header-only arrival")
	}
}

func TestTxLifecycle(t *testing.T) {
	f := NewTx(7, 3, 2*packet.PayloadSize+10, 0)
	if f.Npkts != 3 {
		t.Fatalf("npkts = %d", f.Npkts)
	}
	f.MarkSent(0)
	f.MarkSent(0)
	if f.SentCnt != 1 || !f.Sent(0) || f.Sent(1) {
		t.Fatalf("sent bookkeeping broken: cnt=%d", f.SentCnt)
	}
	if f.RemainingBytes() != 2*packet.PayloadSize {
		t.Fatalf("remaining = %d", f.RemainingBytes())
	}
}

// Property: conservation — needed + outstanding + received == npkts under
// arbitrary interleavings of grant/receive/revert.
func TestRxConservationProperty(t *testing.T) {
	f := func(ops []uint16, sizeRaw uint16) bool {
		size := int64(sizeRaw%50+1) * packet.PayloadSize
		fl := rxFor(size)
		for _, op := range ops {
			seq := int(op) % fl.Npkts
			switch op % 3 {
			case 0:
				if s := fl.NextNeeded(); s >= 0 {
					fl.Grant(s)
				}
			case 1:
				if !fl.Done {
					fl.MarkReceived(seq, packet.MTU)
				}
			case 2:
				fl.RevertStale(seq)
			}
			if fl.Done {
				break
			}
			needed := 0
			for s := 0; s < fl.Npkts; s++ {
				if fl.State(s) == Needed {
					needed++
				}
			}
			if needed+fl.Outstanding+fl.RecvCnt != fl.Npkts {
				return false
			}
			if fl.NeededCnt() != needed || fl.Outstanding < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: NextNeeded always returns a Needed seq and never skips one
// forever — repeatedly granting NextNeeded exhausts the flow.
func TestNextNeededExhaustsProperty(t *testing.T) {
	f := func(sizeRaw uint16) bool {
		size := int64(sizeRaw%100+1) * packet.PayloadSize
		fl := rxFor(size)
		granted := 0
		for {
			s := fl.NextNeeded()
			if s < 0 {
				break
			}
			if fl.State(s) != Needed {
				return false
			}
			fl.Grant(s)
			granted++
			if granted > fl.Npkts {
				return false
			}
		}
		return granted == fl.Npkts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFifoKeepsItsArray: the token queues pop from the front and push at
// the back for as long as a flow lives. A FIFO must return entries in
// push order across every slide of its live entries to the front, and a
// queue that stays within a length allocates nothing once its array has
// grown to that length — which reslicing the front away (x = x[1:])
// never achieves, since every pop strands a slot.
func TestFifoKeepsItsArray(t *testing.T) {
	var q FIFO[int32]
	next, want := int32(0), int32(0)
	// Lengths swing between 1 and 40, so the queue slides and grows.
	for round := 0; round < 200; round++ {
		for q.Len() < 1+round%40 {
			q.Push(next)
			next++
		}
		for q.Len() > round%7 {
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	if live := q.Live(); len(live) > 0 && live[0] != want {
		t.Fatalf("live starts at %d, want %d", live[0], want)
	}
	if c := cap(q.buf); c > 4*40 {
		t.Errorf("array grew to %d for a queue never longer than 40", c)
	}
	steady := func() {
		for i := 0; i < 64; i++ {
			q.Push(next)
			next++
			q.Pop()
		}
	}
	steady()
	if n := testing.AllocsPerRun(100, steady); n != 0 {
		t.Errorf("a queue at steady length allocated %.1f times per 64 push/pop pairs, want 0", n)
	}
	q.Truncate(0)
	if q.Len() != 0 || q.head != 0 {
		t.Errorf("Truncate(0) left length %d, head %d", q.Len(), q.head)
	}
}
