package netsim

import (
	"dcpim/internal/checkpoint"
	"dcpim/internal/packet"
)

// Checkpoint capture for the fabric. CaptureState serializes every piece
// of netsim state that determines future behavior — per-shard counters,
// switch fault/PFC state, per-port queue contents and transmitter state,
// per-device RNG positions, and each host's protocol state — into one
// canonical byte stream. Canonical means independent of physical layout:
// port queues are written as their packets in order (list links and the
// non-empty mask excluded), and devices are walked in topology order, so
// two fabrics in the same logical state always serialize identically.
// Capture is pure reads; taking a snapshot never perturbs the run.
//
// There is no fabric-level restore: resume rebuilds the fabric from its
// spec and replays deterministically to the snapshot time, then verifies
// the re-captured state byte-for-byte (see experiments.Resume). That
// verified-replay design is what lets checkpoints double as correctness
// oracles.

// StateCaptor is implemented by protocols whose state participates in
// checkpoint capture (internal/core does). Protocols without it are
// captured as a zero marker — their runs still checkpoint, but protocol
// state is not part of the divergence oracle.
type StateCaptor interface {
	CaptureState(enc *checkpoint.Encoder)
}

// CaptureState serializes the fabric's complete netsim-level state.
// Engine state (clocks, queues, RNGs) is captured separately through
// sim.Engine.CaptureState; this covers everything the fabric layers on
// top. Call it only between runs or at barriers — never from inside an
// event callback — and after mergeCounters has run (RunSynced guarantees
// both at its sync points).
func (f *Fabric) CaptureState(enc *checkpoint.Encoder) {
	enc.U32(uint32(len(f.shards)))
	for _, s := range f.shards {
		captureCounters(enc, s.counters)
		enc.U64(s.staged)
	}
	enc.U32(uint32(len(f.switches)))
	for i := range f.switches {
		d := &f.switches[i]
		enc.Bool(d.down)
		enc.U64(d.src.Draws())
		enc.U32(uint32(len(d.ingressBytes)))
		for _, b := range d.ingressBytes {
			enc.I64(b)
		}
		enc.U32(uint32(len(d.paused))) // 0 until the switch's first PFC accounting
		for _, p := range d.paused {
			enc.Bool(p)
		}
		enc.U32(uint32(len(d.ports)))
		for pi := range d.ports {
			d.ports[pi].captureState(enc)
		}
	}
	enc.U32(uint32(len(f.hosts)))
	for i := range f.hosts {
		h := &f.hosts[i]
		enc.U64(h.src.Draws())
		h.nic.captureState(enc)
		if c, ok := h.proto.(StateCaptor); ok {
			enc.U8(1)
			c.CaptureState(enc)
		} else {
			enc.U8(0)
		}
	}
}

func captureCounters(enc *checkpoint.Encoder, c *Counters) {
	enc.I64(c.DataDrops)
	enc.I64(c.CtrlDrops)
	enc.I64(c.Trims)
	enc.I64(c.AeolusDrops)
	enc.I64(c.ECNMarks)
	enc.I64(c.PFCPauses)
	enc.I64(c.PFCResumes)
	enc.I64(c.DeliveredData)
	enc.I64(c.DeliveredCtrl)
	enc.I64(c.DeliveredBytes)
	enc.I64(c.HostDrops)
	enc.I64(c.FaultDrops)
}

// captureState serializes one port: transmitter and fault state, the
// arrival-band sequence, and each priority class as a count followed by
// its packets in FIFO order, each with the ingress it arrived through.
// The class lists are intrusive (packet.Packet.QNext), so the count takes
// one walk and the content a second; the links themselves, the tail
// pointers and the non-empty mask are physical layout and deliberately
// excluded. A clean port writes zeros for the three fault values.
func (o *outPort) captureState(enc *checkpoint.Encoder) {
	enc.I64(o.queuedBytes)
	enc.I64(o.maxQueued)
	enc.I64(o.txBytes)
	// The busy flag can outlive its key; the logical state is whether the
	// transmission is still in progress (serializing(), spelled out so that
	// ckptcomplete sees the fields read).
	busy := o.busy && !o.sh.eng.Passed(o.busyUntil, o.busySeq)
	enc.Bool(busy)
	if busy {
		enc.I64(int64(o.busyUntil))
		enc.U64(o.busySeq)
		enc.Bool(o.wakeArmed)
	}
	enc.Bool(o.paused)
	enc.Bool(o.down)
	lf := o.sh.faults[o] // zero for a clean port
	enc.F64(lf.lossRate)
	enc.F64(lf.burstRate)
	enc.I64(int64(lf.burstUntil))
	enc.U64(o.arrSeq)
	for pr := range o.q {
		n := uint32(0)
		for p := o.first(pr); p != nil; p = o.next(pr, p) {
			n++
		}
		enc.U32(n)
		for p := o.first(pr); p != nil; p = o.next(pr, p) {
			capturePacket(enc, p)
			enc.I64(int64(p.QIn))
		}
	}
}

// capturePacket serializes every packet field that influences future
// execution (pool bookkeeping excluded).
func capturePacket(enc *checkpoint.Encoder, p *packet.Packet) {
	enc.U8(uint8(p.Kind))
	enc.I64(int64(p.Src))
	enc.I64(int64(p.Dst))
	enc.U64(p.Flow)
	enc.I64(int64(p.Seq))
	enc.I64(int64(p.Size))
	enc.U8(p.Priority)
	enc.I64(p.FlowSize)
	enc.I64(p.Remaining)
	enc.I64(int64(p.CumAck))
	enc.I64(int64(p.Round))
	enc.I64(p.Epoch)
	enc.I64(int64(p.Channels))
	enc.I64(int64(p.Count))
	enc.Bool(p.ECN)
	enc.Bool(p.Trimmed)
	enc.Bool(p.Unsched)
	enc.Bool(p.CollectINT)
	enc.U32(uint32(len(p.INT)))
	for _, h := range p.INT {
		enc.I64(h.QueueBytes)
		enc.I64(h.TxBytes)
		enc.I64(int64(h.Timestamp))
		enc.F64(h.RateBps)
	}
	enc.I64(int64(p.SentAt))
	enc.U8(p.PauseClass)
}
