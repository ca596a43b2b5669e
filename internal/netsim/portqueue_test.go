package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
)

// queued is one buffered packet of the reference model plus the ingress it
// arrived through — the element type the port's queues had before they
// became intrusive lists.
type queued struct {
	p  *packet.Packet
	in int
}

// portModel is the reference the port queue is checked against: one plain
// slice per class, an eager transmitter flag, and the byte accounting.
type portModel struct {
	q                               [packet.NumPriorities][]queued
	queuedBytes, maxQueued, txBytes int64
	capacity                        int64
	busy, paused, down              bool
	ingress                         []int64
	sent                            []*packet.Packet // transmit order
}

func (m *portModel) count() (n int) {
	for pr := range m.q {
		n += len(m.q[pr])
	}
	return n
}

// pop removes the head of the first non-empty class.
func (m *portModel) pop() (queued, bool) {
	for pr := range m.q {
		if len(m.q[pr]) > 0 {
			el := m.q[pr][0]
			m.q[pr] = m.q[pr][1:]
			m.queuedBytes -= int64(el.p.Size)
			m.ingress[el.in] -= int64(el.p.Size)
			return el, true
		}
	}
	return queued{}, false
}

// tryTransmit starts the next packet if nothing holds the transmitter.
func (m *portModel) tryTransmit() {
	if m.paused || m.down || m.busy {
		return
	}
	if el, ok := m.pop(); ok {
		m.busy = true
		m.txBytes += int64(el.p.Size)
		m.sent = append(m.sent, el.p)
	}
}

// enqueue admits p by drop-tail and reports whether it was buffered.
func (m *portModel) enqueue(p *packet.Packet, in int) bool {
	if m.queuedBytes+int64(p.Size) > m.capacity {
		return false
	}
	pr := int(p.Priority)
	if pr >= packet.NumPriorities {
		pr = packet.NumPriorities - 1
	}
	m.q[pr] = append(m.q[pr], queued{p, in})
	m.queuedBytes += int64(p.Size)
	if m.queuedBytes > m.maxQueued {
		m.maxQueued = m.queuedBytes
	}
	m.ingress[in] += int64(p.Size)
	m.tryTransmit()
	return true
}

// diff compares the port's transmitter, PFC and link state and every
// class list with the model and describes the first difference ("" when
// they agree). Each class is walked with first/next, so its packets must
// be the model's, in the model's order, each with the ingress it arrived
// through; a clean port holds no fault entry.
func (m *portModel) diff(o *outPort) string {
	if o.serializing() != m.busy || o.paused != m.paused || o.down != m.down {
		return fmt.Sprintf("port serializing=%v paused=%v down=%v, model %v %v %v",
			o.serializing(), o.paused, o.down, m.busy, m.paused, m.down)
	}
	if o.faulty {
		return "clean port is marked faulty"
	}
	for pr := range m.q {
		i := 0
		for p := o.first(pr); p != nil; p = o.next(pr, p) {
			if i == len(m.q[pr]) {
				return fmt.Sprintf("class %d walks past the model's %d packets", pr, len(m.q[pr]))
			}
			if el := m.q[pr][i]; p != el.p || int(p.QIn) != el.in {
				return fmt.Sprintf("class %d packet %d is %p from ingress %d, model %p from %d", pr, i, p, p.QIn, el.p, el.in)
			}
			i++
		}
		if i != len(m.q[pr]) {
			return fmt.Sprintf("class %d walks %d packets, model holds %d", pr, i, len(m.q[pr]))
		}
	}
	return ""
}

// queuedCount walks every class list of o and counts its packets.
func queuedCount(o *outPort) (n int) {
	for pr := range o.q {
		for p := o.first(pr); p != nil; p = o.next(pr, p) {
			n++
		}
	}
	return n
}

// unlinked reports whether p carries no queue linkage.
func unlinked(p *packet.Packet) bool { return p.QNext == nil && p.QIn == 0 }

// TestPortQueueAgainstModel drives one switch port — leaf 0's downlink to
// host 0 — with random interleavings of everything that touches its
// queue: enqueues in every class (classes ≥ 8 clamp to the lowest) from
// random ingresses, transmit completions, PFC pause/resume, link down/up
// and a cold reboot's drain. After every step the port must agree with
// the slice-per-class model on the counters (the high-water mark is the
// shard's, and this port is the only one that fills), on the auditor's walk, and
// on the content and order of every class (hence the pop order); a
// packet that leaves the
// queue — transmitted, drained or dropped — must carry no stale link or
// ingress, and at the end the packets reach the host in the model's
// transmit order.
func TestPortQueueAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := Config{Spray: true, EnablePFC: true, PortBufferBytes: 12 * packet.MTU}
		f, sinks := buildFabric(t, topo.SmallLeafSpine(), cfg)
		eng := f.Engine()
		sw := &f.switches[0]
		port := &sw.ports[0]
		m := &portModel{capacity: cfg.PortBufferBytes, ingress: make([]int64, len(sw.ingressBytes))}
		rng := rand.New(rand.NewSource(seed))
		sizes := []int{packet.MTU, packet.MTU, packet.HeaderSize, 700}

		check := func(step int, op string) {
			t.Helper()
			if n, hw := queuedCount(port), f.MaxPortQueue(); n != m.count() || port.queuedBytes != m.queuedBytes ||
				hw != m.maxQueued || port.txBytes != m.txBytes {
				t.Fatalf("seed %d step %d (%s): port holds %d packets, queuedBytes=%d MaxPortQueue=%d txBytes=%d, model %d %d %d %d",
					seed, step, op, n, port.queuedBytes, hw, port.txBytes,
					m.count(), m.queuedBytes, m.maxQueued, m.txBytes)
			}
			if n := port.auditQueued(f.audit); n != int64(m.count()) || len(f.audit.errs) != 0 {
				t.Fatalf("seed %d step %d (%s): auditor walked %d packets, model holds %d; errors %v",
					seed, step, op, n, m.count(), f.audit.errs)
			}
			if !reflect.DeepEqual(sw.ingressBytes, m.ingress) {
				t.Fatalf("seed %d step %d (%s): ingress bytes %v, model %v", seed, step, op, sw.ingressBytes, m.ingress)
			}
			if d := m.diff(port); d != "" {
				t.Fatalf("seed %d step %d (%s): %s", seed, step, op, d)
			}
			for _, p := range m.sent {
				if !unlinked(p) {
					t.Fatalf("seed %d step %d (%s): transmitted packet still linked: QNext=%p QIn=%d", seed, step, op, p.QNext, p.QIn)
				}
			}
		}
		// released checks a packet the fabric dropped: packet.Release must
		// have handed it back zeroed, linkage included.
		released := func(step int, op string, p *packet.Packet) {
			t.Helper()
			if !reflect.DeepEqual(*p, packet.Packet{}) {
				t.Fatalf("seed %d step %d (%s): dropped packet not zeroed by Release: %+v", seed, step, op, *p)
			}
		}

		for step := 0; step < 600; step++ {
			op := "enqueue"
			switch r := rng.Intn(20); {
			case r < 11:
				p := packet.NewData(1, 0, uint64(step), step, sizes[rng.Intn(len(sizes))], uint8(rng.Intn(11)))
				in := rng.Intn(len(sw.ports))
				f.audit.inject(p)
				admitted := m.enqueue(p, in) // before the port can recycle p
				port.enqueueAt(p, sw, in)
				if !admitted {
					released(step, op, p)
				}
			case r < 15:
				op = "complete"
				if m.busy {
					eng.Run(port.busyUntil)
					m.busy = false
					m.tryTransmit()
				}
			case r < 16:
				op = "pause"
				pfcApply(port, nil, 1)
				m.paused = true
			case r < 17:
				op = "resume"
				pfcApply(port, nil, 0)
				m.paused = false
				m.tryTransmit()
			case r < 18:
				op = "link down"
				f.SetLinkDown(0, 0, true)
				m.down = true
			case r < 19:
				op = "link up"
				f.SetLinkDown(0, 0, false)
				m.down = false
				m.tryTransmit()
			default:
				op = "cold reboot"
				m.down = true
				var drained []*packet.Packet
				for el, ok := m.pop(); ok; el, ok = m.pop() {
					drained = append(drained, el.p)
				}
				f.RebootSwitch(0, true)
				for _, p := range drained {
					released(step, op, p)
				}
				check(step, op)
				op = "restore"
				f.RestoreSwitch(0)
				m.down = false
				m.tryTransmit()
			}
			check(step, op)
		}

		// Let everything still buffered out and compare the order on the wire.
		pfcApply(port, nil, 0)
		f.SetLinkDown(0, 0, false)
		m.paused, m.down = false, false
		for m.busy || m.count() > 0 {
			m.busy = false
			m.tryTransmit()
		}
		eng.RunAll()
		if got := sinks[0].received; !reflect.DeepEqual(got, m.sent) {
			t.Fatalf("seed %d: host received %d packets, model transmitted %d, or in another order", seed, len(got), len(m.sent))
		}
	}
}

// TestAuditCatchesReleaseWhileBuffered: a protocol that recycles a packet
// the fabric still holds zeroes its queue link with everything else, which
// cuts the class list behind it. The conservation auditor must say so.
func TestAuditCatchesReleaseWhileBuffered(t *testing.T) {
	f := New(sim.NewEngine(1), topo.SmallLeafSpine().Build(), Config{Spray: true})
	f.EnableAudit()
	for i := 0; i < f.Topology().NumHosts; i++ {
		f.AttachProtocol(i, &sink{})
	}
	f.Start()
	f.SetLinkDown(0, 0, true)
	var parked []*packet.Packet
	for i := 0; i < 3; i++ {
		p := packet.NewData(1, 0, 7, i, packet.MTU, packet.PrioShort)
		parked = append(parked, p)
		f.Host(1).Send(p)
	}
	f.Engine().RunAll()
	if errs := f.AuditVerify(); len(errs) != 0 {
		t.Fatalf("audit of three parked packets: %v", errs)
	}
	packet.Release(parked[1])
	errs := strings.Join(f.AuditVerify(), "\n")
	if !strings.Contains(errs, "released while buffered") {
		t.Fatalf("auditor missed a packet released while buffered; errors: %q", errs)
	}
}

// TestClassListsAgainstModel drives the tail-keyed class lists alone —
// push, pop and drain on all eight classes (priorities ≥ 8 clamp to the
// lowest), the transmitter held down so nothing leaves on its own —
// against one slice per class. Classes run down to empty and refill all
// the time, so the one-packet list, a tail that is its own head, is
// crossed both ways. Every pop must return the model's strict-priority
// head with its ingress and no link left on it, and after every step each
// class's walk (first/next) must hold the model's packets in FIFO order.
func TestClassListsAgainstModel(t *testing.T) {
	f := New(sim.NewEngine(1), topo.SmallLeafSpine().Build(), Config{Spray: true})
	o := &f.switches[0].ports[0]
	o.down = true
	sizes := []int{packet.MTU, packet.HeaderSize, 700}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &portModel{down: true, ingress: make([]int64, 4)}
		pop := func(step int, op string) bool {
			t.Helper()
			want, ok := m.pop()
			p, in := o.pop()
			if !ok {
				if p != nil {
					t.Fatalf("seed %d step %d (%s): popped %v from a port the model says is empty", seed, step, op, p)
				}
				return false
			}
			if p != want.p || in != want.in {
				t.Fatalf("seed %d step %d (%s): popped %v from ingress %d, model's head is %v from %d", seed, step, op, p, in, want.p, want.in)
			}
			if !unlinked(p) {
				t.Fatalf("seed %d step %d (%s): popped packet still linked", seed, step, op)
			}
			packet.Release(p)
			return true
		}
		for step := 0; step < 3000; step++ {
			op := "push"
			switch r := rng.Intn(20); {
			case r < 10:
				p := packet.NewData(1, 0, uint64(step), step, sizes[rng.Intn(len(sizes))], uint8(rng.Intn(11)))
				in := rng.Intn(len(m.ingress))
				m.capacity = m.queuedBytes + int64(p.Size)
				m.enqueue(p, in)
				o.push(p, in)
			case r < 19:
				op = "pop"
				pop(step, op)
			default:
				op = "drain"
				for pop(step, op) {
				}
			}
			if n, bits := queuedCount(o), o.nonEmpty; n != m.count() || o.queuedBytes != m.queuedBytes {
				t.Fatalf("seed %d step %d (%s): port holds %d packets, %d bytes, mask %08b; model %d, %d",
					seed, step, op, n, o.queuedBytes, bits, m.count(), m.queuedBytes)
			}
			for pr := range m.q {
				if empty := o.nonEmpty&(1<<pr) == 0; empty != (len(m.q[pr]) == 0) || empty != (o.q[pr] == nil) {
					t.Fatalf("seed %d step %d (%s): class %d mask bit and tail disagree with the model's %d packets", seed, step, op, pr, len(m.q[pr]))
				}
			}
			if d := m.diff(o); d != "" {
				t.Fatalf("seed %d step %d (%s): %s", seed, step, op, d)
			}
		}
		for pop(0, "final drain") {
		}
	}
}

// TestPortLayout guards the memory layout the forwarding path was sized
// for (DESIGN.md §8.4). A hop's first touch of a port is a cache miss at
// 8192 hosts, so a port is exactly two cache lines of a 64-byte-aligned
// slab: everything enqueueAt → push → tryTransmit → armWake reads or
// writes besides the class lists in the first, the eight class tails in
// the second. A field added without thought would grow every one of a
// fabric's ports (57,344 at k=32) by a line. A field every port of a kind
// of link shares goes in portClass; any other needs something else to
// leave. A packet stays within the allocator's 128-byte size class.
func TestPortLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is sized for 64-bit words")
	}
	var o outPort
	if sz := unsafe.Sizeof(o); sz != 128 {
		t.Errorf("outPort is %d bytes, want exactly 128 (two cache lines)", sz)
	}
	if off := unsafe.Offsetof(o.q); off != 64 {
		t.Errorf("outPort.q starts at offset %d, want 64 (the second cache line)", off)
	}
	if sz := unsafe.Sizeof(packet.Packet{}); sz > 128 {
		t.Errorf("packet.Packet is %d bytes, want <= 128 (the allocator's size class)", sz)
	}
	f := New(sim.NewEngine(1), topo.FatTreeK(8).Build(), Config{Spray: true})
	if addr := uintptr(unsafe.Pointer(&f.ports[0])); addr%64 != 0 {
		t.Errorf("a k=8 FatTree's port slab starts at %#x, not on a 64-byte line", addr)
	}
}

// TestNewShardedAllocatesSlabs: building a fabric costs a fixed number of
// allocations — the slabs, the shard, its lanes and port classes — not one
// per port, switch or host. The k=8 FatTree has 128 hosts, 80 switches and
// 640 switch ports.
func TestNewShardedAllocatesSlabs(t *testing.T) {
	tp := topo.FatTreeK(8).Build()
	part, err := topo.MakePartition(tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spray: true, EnablePFC: true}
	allocs := testing.AllocsPerRun(5, func() {
		NewSharded(sim.NewGroup([]*sim.Engine{sim.NewEngine(1)}), tp, cfg, part)
	})
	// Measured 46 at k=8 (47 at k=16): engine and group, one shard with
	// its lanes, its staging chains and its port-class slab, five slabs
	// (the boundary links' arrival sequences share the ingress
	// counters'), and the per-switch offset table and per-shard result
	// the shards' wiring passes share.
	// One allocation per switch alone would add 80.
	if allocs > 48 {
		t.Errorf("NewSharded on a k=8 FatTree made %.0f allocations, want a constant (<= 48), not one per device", allocs)
	}
}
