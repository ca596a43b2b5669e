package netsim

import (
	"fmt"
	"sync"

	"dcpim/internal/packet"
)

// auditor is the debug-mode packet-conservation checker. It tracks every
// packet the fabric owns — from Host.Send until the drop or delivery
// release point — and records ownership violations as they happen:
// injecting a packet the fabric already owns (double-inject, or a
// protocol Released a fabric-owned packet and the pool reissued it) and
// releasing a packet the fabric does not own (double-free). AuditVerify
// then checks the conservation equation against the queues and Counters.
//
// The auditor guards the sync.Pool ownership contract (see
// packet.Packet): fault paths add new drop sites (reboot drains, dark
// switches, degraded links), and a site that forgets to release — or
// releases twice — would silently corrupt concurrent simulations sharing
// the pool.
// The mutex makes the auditor safe under sharded execution, where
// observer callbacks fire concurrently from shard goroutines. Tallies
// and set membership are commutative, so the audit verdict is still
// deterministic; only the recording order of errs can vary, and then
// only in runs that already have bugs.
type auditor struct {
	mu        sync.Mutex
	live      map[*packet.Packet]struct{}
	injected  int64
	delivered int64
	dropped   int64
	errs      []string
}

// maxAuditErrs bounds recorded violations; one bug can fire per packet.
const maxAuditErrs = 16

func (a *auditor) fail(format string, args ...any) {
	if len(a.errs) < maxAuditErrs {
		a.errs = append(a.errs, fmt.Sprintf(format, args...))
	}
}

// The auditor subscribes to the fabric as an Observer: injection,
// delivery and drop transitions arrive through the same fan-out every
// other probe uses.
func (a *auditor) PacketInjected(_ int, p *packet.Packet) { a.inject(p) }

// PacketDelivered implements Observer.
func (a *auditor) PacketDelivered(_ int, p *packet.Packet) { a.deliver(p) }

// PacketDropped implements Observer.
func (a *auditor) PacketDropped(p *packet.Packet) { a.drop(p) }

// PacketTrimmed implements Observer. Trims keep the packet in flight, so
// ownership does not change hands and the auditor ignores them.
func (a *auditor) PacketTrimmed(*packet.Packet) {}

func (a *auditor) inject(p *packet.Packet) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.live[p]; ok {
		a.fail("audit: packet injected while fabric still owns it (double-inject or premature Release): %v", p)
		return
	}
	a.live[p] = struct{}{}
	a.injected++
}

func (a *auditor) deliver(p *packet.Packet) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.live[p]; !ok {
		a.fail("audit: delivered packet the fabric does not own (double-free): %v", p)
		return
	}
	delete(a.live, p)
	a.delivered++
}

func (a *auditor) drop(p *packet.Packet) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.live[p]; !ok {
		a.fail("audit: dropped packet the fabric does not own (double-free): %v", p)
		return
	}
	delete(a.live, p)
	a.dropped++
}

// EnableAudit turns on the packet-conservation auditor. Call before any
// traffic is injected.
func (f *Fabric) EnableAudit() {
	if f.audit == nil {
		f.audit = &auditor{live: make(map[*packet.Packet]struct{})}
		f.AddObserver(f.audit)
	}
}

// auditQueued returns the number of packets buffered in port o, and
// checks each against the auditor's live set and each class's walk
// against its tail.
func (o *outPort) auditQueued(a *auditor) int64 {
	var n int64
	for pr := range o.q {
		var last *packet.Packet
		for p := o.first(pr); p != nil; p = o.next(pr, p) {
			n++
			last = p
			if _, ok := a.live[p]; !ok {
				a.fail("audit: queued packet not owned by fabric (released while buffered): %v", p)
			}
		}
		if last != o.q[pr] {
			a.fail("audit: class %d list ends %d packets in, before its tail (released while buffered: recycling a packet zeroes its queue link)",
				pr, n)
		}
	}
	return n
}

// AuditVerify checks the conservation invariant and returns every
// violation found (nil when clean). It must be called at quiescence — no
// packets in flight on links or inside host/switch processing delays —
// typically after the engine drains or after traffic has fully completed.
// The invariant: every injected packet is exactly one of delivered,
// counted-dropped, or still buffered in a NIC or switch queue, and the
// disjoint Counters agree with the auditor's own release tallies.
func (f *Fabric) AuditVerify() []string {
	a := f.audit
	if a == nil {
		return nil
	}
	f.mergeCounters()
	var queued int64
	for i := range f.ports {
		queued += f.ports[i].auditQueued(a)
	}
	if outstanding := int64(len(a.live)); a.injected != a.delivered+a.dropped+outstanding {
		a.fail("audit: ownership leak: injected %d != delivered %d + dropped %d + outstanding %d",
			a.injected, a.delivered, a.dropped, outstanding)
	}
	if queued != int64(len(a.live)) {
		a.fail("audit: %d packets owned by fabric but only %d buffered (in flight at a non-quiescent instant, or leaked)",
			len(a.live), queued)
	}
	c := &f.Counters
	if got := c.DeliveredData + c.DeliveredCtrl; got != a.delivered {
		a.fail("audit: delivery counters sum to %d, auditor delivered %d", got, a.delivered)
	}
	if got := c.TotalDrops(); got != a.dropped {
		a.fail("audit: drop counters sum to %d, auditor dropped %d (a drop site counts zero or two counters)",
			got, a.dropped)
	}
	return a.errs
}
