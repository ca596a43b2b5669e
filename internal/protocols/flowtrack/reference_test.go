package flowtrack

import (
	"fmt"
	"math/rand"
	"testing"

	"dcpim/internal/packet"
)

// refRx and refTx are the byte-per-seq trackers that Rx and Tx compact:
// one uint8 state and one bool sent mark per seq, and re-requests in a
// slice that pops by reslicing. They are the specification the
// differential test holds Rx and Tx to, op by op.
type refRx struct {
	size        int64
	npkts       int
	state       []uint8
	nextNew     int
	retx        []int
	outstanding int
	recvBytes   int64
	recvCnt     int
	maxReceived int
	done        bool
}

func newRefRx(size int64) *refRx {
	n := packet.PacketsForBytes(size)
	return &refRx{size: size, npkts: n, state: make([]uint8, n), maxReceived: -1}
}

func (f *refRx) markReceived(seq, wireSize int) int64 {
	if f.done || seq < 0 || seq >= f.npkts || f.state[seq] == Received {
		return 0
	}
	if f.state[seq] == Granted {
		f.outstanding--
	}
	f.state[seq] = Received
	f.recvCnt++
	if seq > f.maxReceived {
		f.maxReceived = seq
	}
	payload := int64(wireSize) - packet.HeaderSize
	if payload < 0 {
		payload = 0
	}
	f.recvBytes += payload
	if f.recvBytes >= f.size {
		f.done = true
	}
	return payload
}

func (f *refRx) nextNeeded() int {
	for len(f.retx) > 0 {
		if s := f.retx[0]; f.state[s] == Needed {
			return s
		}
		f.retx = f.retx[1:]
	}
	for f.nextNew < f.npkts && f.state[f.nextNew] != Needed {
		f.nextNew++
	}
	if f.nextNew < f.npkts {
		return f.nextNew
	}
	return -1
}

func (f *refRx) grant(seq int) {
	if f.state[seq] != Needed {
		return
	}
	if len(f.retx) > 0 && f.retx[0] == seq {
		f.retx = f.retx[1:]
	}
	f.state[seq] = Granted
	f.outstanding++
}

func (f *refRx) skipGrant(seq int) {
	if f.state[seq] == Needed {
		f.state[seq] = Granted
		f.outstanding++
	}
}

func (f *refRx) revert(seq int) bool {
	if f.state[seq] != Granted {
		return false
	}
	f.state[seq] = Needed
	f.outstanding--
	f.retx = append(f.retx, seq)
	return true
}

func (f *refRx) revertStale(maxSeq int) int {
	if f.done {
		return 0
	}
	if maxSeq >= f.npkts {
		maxSeq = f.npkts - 1
	}
	n := 0
	for seq := 0; seq <= maxSeq; seq++ {
		if f.revert(seq) {
			n++
		}
	}
	return n
}

func (f *refRx) revertGaps(slack int) int {
	if f.done || f.maxReceived < 0 {
		return 0
	}
	return f.revertStale(f.maxReceived - slack)
}

type refTx struct {
	npkts   int
	sent    []bool
	sentCnt int
}

func newRefTx(size int64) *refTx {
	n := packet.PacketsForBytes(size)
	return &refTx{npkts: n, sent: make([]bool, n)}
}

func (f *refTx) markSent(seq int) {
	if seq >= 0 && seq < f.npkts && !f.sent[seq] {
		f.sent[seq] = true
		f.sentCnt++
	}
}

// diff returns the first observable on which the trackers and their
// references differ, or "".
func diff(rx *Rx, ref *refRx, tx *Tx, rtx *refTx) string {
	if rx.Npkts != ref.npkts || rx.Size != ref.size {
		return fmt.Sprintf("flow is %d pkts / %d B, want %d / %d", rx.Npkts, rx.Size, ref.npkts, ref.size)
	}
	needed := 0
	for seq, want := range ref.state {
		if got := rx.State(seq); got != want {
			return fmt.Sprintf("State(%d) = %d, want %d", seq, got, want)
		}
		if want == Needed {
			needed++
		}
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"Outstanding", int64(rx.Outstanding), int64(ref.outstanding)},
		{"RecvBytes", rx.RecvBytes, ref.recvBytes},
		{"RecvCnt", int64(rx.RecvCnt), int64(ref.recvCnt)},
		{"MaxReceived", int64(rx.MaxReceived), int64(ref.maxReceived)},
		{"NeededCnt", int64(rx.NeededCnt()), int64(needed)},
		{"Remaining", rx.Remaining(), ref.size - ref.recvBytes},
		{"Tx.Npkts", int64(tx.Npkts), int64(rtx.npkts)},
		{"SentCnt", int64(tx.SentCnt), int64(rtx.sentCnt)},
		{"RemainingBytes", tx.RemainingBytes(), int64(rtx.npkts-rtx.sentCnt) * packet.PayloadSize},
	} {
		if c.got != c.want {
			return fmt.Sprintf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if rx.Done != ref.done {
		return fmt.Sprintf("Done = %v, want %v", rx.Done, ref.done)
	}
	for seq := -1; seq <= rtx.npkts; seq++ {
		want := seq >= 0 && seq < rtx.npkts && rtx.sent[seq]
		if got := tx.Sent(seq); got != want {
			return fmt.Sprintf("Sent(%d) = %v, want %v", seq, got, want)
		}
	}
	return ""
}

// opNames name the ops runOps decodes, by opcode.
var opNames = [...]string{"Reset", "Grant", "Grant(NextNeeded)", "SkipGrant", "Revert",
	"RevertStale", "RevertGaps", "MarkReceived", "NextNeeded", "MarkSent"}

// runOps drives one Rx and one Tx, each reused across Resets, and their
// references through the ops data encodes — the first byte sizes the
// first flow, then two bytes an op: opcode and argument — and fails at
// the first result or observable that differs.
func runOps(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	var (
		rx  Rx
		tx  Tx
		ref *refRx
		rtx *refTx
	)
	reset := func(arg byte) {
		// 1–100 packets, the last one partial in two of three flows: the
		// states span several words of both packed arrays.
		size := int64(arg%100+1)*packet.PayloadSize - int64(arg%3)*500
		rx.Reset(&packet.Packet{Flow: uint64(arg), Src: int(arg % 7), FlowSize: size})
		tx.Reset(uint64(arg), int(arg%7), size, 0)
		ref, rtx = newRefRx(size), newRefTx(size)
	}
	reset(data[0])
	for i := 1; i+1 < len(data); i += 2 {
		op, arg := int(data[i])%len(opNames), data[i+1]
		// seq is in range, and most often among the first few so that ops
		// meet on the same seqs; any may lie one beyond either end.
		seq := int(arg) % min(ref.npkts, 6)
		if arg&0x80 != 0 {
			seq = int(arg) % ref.npkts
		}
		anySeq := int(arg)%(ref.npkts+2) - 1
		var got, want int64
		switch op {
		case 0:
			reset(arg)
		case 1:
			rx.Grant(seq)
			ref.grant(seq)
		case 2:
			g, w := rx.NextNeeded(), ref.nextNeeded()
			got, want = int64(g), int64(w)
			if g == w && w >= 0 {
				rx.Grant(g)
				ref.grant(w)
			}
		case 3:
			rx.SkipGrant(seq)
			ref.skipGrant(seq)
		case 4:
			if rx.Revert(seq) {
				got = 1
			}
			if ref.revert(seq) {
				want = 1
			}
		case 5:
			got, want = int64(rx.RevertStale(anySeq)), int64(ref.revertStale(anySeq))
		case 6:
			got, want = int64(rx.RevertGaps(int(arg%8))), int64(ref.revertGaps(int(arg%8)))
		case 7:
			wire := packet.MTU
			if anySeq >= 0 && anySeq < ref.npkts {
				wire = packet.DataPacketSize(ref.size, anySeq)
			}
			if arg&0x40 != 0 {
				wire = packet.HeaderSize // trimmed
			}
			got, want = rx.MarkReceived(anySeq, wire), ref.markReceived(anySeq, wire)
		case 8:
			got, want = int64(rx.NextNeeded()), int64(ref.nextNeeded())
		case 9:
			tx.MarkSent(anySeq)
			rtx.markSent(anySeq)
		}
		if got != want {
			t.Fatalf("op %d %s(arg %d) returned %d, want %d", i/2, opNames[op], arg, got, want)
		}
		if d := diff(&rx, ref, &tx, rtx); d != "" {
			t.Fatalf("after op %d %s(arg %d): %s", i/2, opNames[op], arg, d)
		}
	}
}

// TestRxMatchesReference holds the packed trackers to the byte-per-seq
// references over random op sequences.
func TestRxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 801)
	for run := 0; run < 2000; run++ {
		rng.Read(data)
		runOps(t, data)
	}
}

// FuzzRx is TestRxMatchesReference over fuzzed op sequences.
func FuzzRx(f *testing.F) {
	f.Add([]byte{7, 1, 0, 1, 1, 1, 2, 1, 3, 4, 3, 4, 1, 1, 3, 4, 3, 8, 0})
	f.Add([]byte{99, 2, 0, 2, 0, 7, 0x81, 5, 90, 2, 0, 7, 0x40, 6, 3, 8, 0, 9, 5, 9, 200})
	f.Add([]byte{40, 3, 0, 3, 1, 7, 1, 6, 0, 0, 3, 2, 0, 8, 0})
	f.Fuzz(func(t *testing.T, data []byte) { runOps(t, data) })
}
