package netsim

import (
	"hash/fnv"
	"strings"
	"testing"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
)

// mixedSizesDigest is the delivered-stream digest of runMixedSizes, pinned
// at the commit before constant-delay lanes existed (every per-hop event
// in the priority queues, every delivery through the sending port).
const mixedSizesDigest = 0x3c2c04bd46348a61

// runMixedSizes drives full-MTU data, 64-byte control and odd-sized tail
// packets between the two racks of the small leaf-spine — every packet
// crosses two boundary links — in bursts that collide on the spine ports
// at the same picosecond, with the auditor on, and folds each host's
// delivered stream (time, flow, seq, size) into one digest in host order.
// MTU and header packets ride the lanes, the odd sizes go through the
// queues, and on two shards some boundary links stage instead.
func runMixedSizes(t *testing.T, shards int) uint64 {
	t.Helper()
	tp := topo.SmallLeafSpine().Build()
	part, err := topo.MakePartition(tp, shards)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		engines[i] = sim.NewEngine(1)
	}
	grp := sim.NewGroup(engines)
	defer grp.Close()
	f := NewSharded(grp, tp, Config{Spray: true}, part)
	f.EnableAudit()
	sinks := make([]*sink, tp.NumHosts)
	for i := range sinks {
		sinks[i] = &sink{}
		f.AttachProtocol(i, sinks[i])
	}
	f.Start()

	n := tp.NumHosts
	sent := 0
	for h := 0; h < n; h++ {
		h, host := h, f.Host(h)
		dst := (h + n/2) % n // the same slot in the other rack
		for burst := 0; burst < 6; burst++ {
			burst := burst
			// Bursts of different hosts start at the same instants.
			at := sim.Time(burst) * sim.Time(400*sim.Nanosecond)
			f.HostEngine(h).Schedule(at, func() {
				flow := uint64(h*100 + burst)
				host.Send(packet.NewData(h, dst, flow, 0, packet.MTU, packet.PrioShort))
				host.Send(packet.NewControl(packet.Token, h, dst, flow))
				host.Send(packet.NewData(h, dst, flow, 1, 200+37*h+burst, packet.PrioShort))
				host.Send(packet.NewData(h, dst, flow, 2, packet.MTU, packet.PrioDataHigh))
				host.Send(packet.NewControl(packet.Ack, h, dst, flow))
			})
			sent += 5
		}
	}
	f.Run(sim.Time(100 * sim.Microsecond))

	if errs := f.AuditVerify(); len(errs) != 0 {
		t.Errorf("packet conservation audit failed:\n%s", strings.Join(errs, "\n"))
	}
	d := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		d.Write(b[:])
	}
	got := 0
	for h, s := range sinks {
		word(uint64(h))
		for i, p := range s.received {
			word(uint64(s.at[i]))
			word(p.Flow)
			word(uint64(p.Seq))
			word(uint64(p.Size))
			word(uint64(p.Kind))
		}
		got += len(s.received)
	}
	if got != sent {
		t.Fatalf("delivered %d of %d packets", got, sent)
	}
	return d.Sum64()
}

// TestMixedSizesAcrossBoundary: lanes move no delivery. MTU, header and
// odd-sized packets interleaved on boundary links arrive in the order
// they did when every hop was a queued event, serially and on two shards.
func TestMixedSizesAcrossBoundary(t *testing.T) {
	for _, shards := range []int{1, 2} {
		if got := runMixedSizes(t, shards); got != mixedSizesDigest {
			t.Errorf("%d shard(s): delivered-stream digest %#x, want %#x", shards, got, uint64(mixedSizesDigest))
		}
	}
}
