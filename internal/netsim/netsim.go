// Package netsim simulates a datacenter network fabric at packet level on
// top of the sim engine: hosts with NIC egress queues, output-queued
// switches with eight strict-priority queues and shared per-port buffers,
// per-packet spraying or per-flow ECMP multipathing, and the switch
// dataplane features the evaluated protocols rely on — ECN marking (DCTCP),
// packet trimming (NDP), priority flow control (HPCC), and in-band network
// telemetry (HPCC).
//
// The fabric is protocol-agnostic: transports implement the Protocol
// interface and exchange packet.Packets through their Host.
package netsim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// Config selects the fabric's dataplane features. The zero value gives
// plain drop-tail priority queues with per-packet spraying and the default
// 500 KB port buffers.
type Config struct {
	// PortBufferBytes is the buffer shared by all priority queues of one
	// switch output port. 0 selects the paper's 500 KB default.
	PortBufferBytes int64
	// ECNThresholdBytes marks Data packets (ECN bit) enqueued while the
	// port holds at least this many bytes. 0 disables marking.
	ECNThresholdBytes int64
	// TrimThresholdBytes trims Data packets to headers instead of
	// dropping when the port holds at least this many bytes (NDP).
	// 0 disables trimming.
	TrimThresholdBytes int64
	// AeolusThresholdBytes drops *unscheduled* Data packets (Unsched set)
	// arriving when the port holds at least this many bytes — Aeolus's
	// selective dropping. 0 disables.
	AeolusThresholdBytes int64
	// EnablePFC turns on hop-by-hop priority flow control with the given
	// per-ingress pause/resume watermarks (bytes buffered at the
	// downstream node attributable to one ingress).
	EnablePFC bool
	PFCPause  int64
	PFCResume int64
	// Spray selects per-packet uniform spraying across equal-cost ports;
	// when false the fabric ECMP-hashes on the flow id.
	Spray bool
	// HostQueueBytes bounds the NIC egress queue. 0 means effectively
	// unbounded (protocols are trusted to pace themselves).
	HostQueueBytes int64
}

// DefaultPortBuffer is the paper's per-port buffer (Table 1).
const DefaultPortBuffer = 500 << 10

// Counters aggregates fabric-wide dataplane statistics. The five drop
// counters are disjoint — every dropped packet increments exactly one of
// them — so they sum to the total loss (the conservation equation the
// auditor checks). Trims and ECNMarks are not drops: a trimmed or marked
// packet is still delivered.
type Counters struct {
	DataDrops      int64 // data lost to drop-tail at switch ports
	CtrlDrops      int64 // control lost to drop-tail at switch ports
	Trims          int64
	AeolusDrops    int64 // unscheduled data selectively dropped (Aeolus)
	ECNMarks       int64
	PFCPauses      int64
	PFCResumes     int64
	DeliveredData  int64 // data packets handed to destination protocols
	DeliveredCtrl  int64 // control packets handed to destination protocols
	DeliveredBytes int64 // wire bytes of delivered data packets
	HostDrops      int64 // NIC egress overflow (bounded host queues only)
	FaultDrops     int64 // injected faults: degraded links, loss bursts, reboot drains, dark switches
}

// TotalDrops sums the disjoint drop counters.
func (c *Counters) TotalDrops() int64 {
	return c.DataDrops + c.CtrlDrops + c.AeolusDrops + c.HostDrops + c.FaultDrops
}

// Protocol is a transport running on one host. The fabric calls Start once
// before the simulation begins, OnFlowArrival when the workload hands the
// host a new flow to send, and OnPacket for every packet addressed to the
// host. Implementations schedule their own timers through Host.Engine.
type Protocol interface {
	Start(h *Host)
	OnFlowArrival(f workload.Flow)
	OnPacket(p *packet.Packet)
}

// Fabric is an instantiated network: topology + devices + configuration.
type Fabric struct {
	eng  *sim.Engine // shard 0's engine
	topo *topo.Topology
	cfg  Config

	// Sharded execution state (see shard.go). A fabric built with New has
	// one shard whose engine is eng and whose counters alias Counters; it
	// runs the same epochs as any other shard count.
	grp    *sim.Group
	part   *topo.Partition // which shard owns which device
	shards []*shardState
	// lookahead is the epoch window, derived by NewSharded from what can
	// cross the cut; barrier is the end of the epoch in flight, which every
	// staged arrival must land after (shardState.stage).
	lookahead sim.Duration
	barrier   sim.Time
	// parity selects the staging rows the epoch in flight appends to
	// (shardState.out); the coordinator flips it between epochs.
	parity int

	// The device plane is flat (DESIGN.md §8.4): one slab per kind, built
	// by NewSharded and never resized, so devices are addressed by index
	// and pointers into the slabs stay valid for the fabric's life. ports
	// holds every switch's output ports in (switch, port) order — each
	// swDev.ports is a window of it — then one NIC per host.
	hosts    []Host
	switches []swDev
	ports    []outPort // the switch windows and host NICs partition it

	// Counters aggregates across shards. Always current single-shard;
	// with several shards it is recomputed at every barrier and when Run
	// returns, so read it between runs, not from inside event callbacks.
	Counters Counters

	// audit, when non-nil, tracks every packet the fabric owns and flags
	// leaks, double-frees, and counter mismatches (see EnableAudit). It
	// receives events as one of the observers but keeps a direct
	// reference for AuditVerify.
	audit *auditor

	// obs fans packet-lifecycle events out to every registered Observer
	// (the conservation auditor, delivered-stream digests). Empty for
	// uninstrumented runs, which keeps the hot path allocation-free.
	obs []Observer
}

// New builds a single-shard fabric over the topology: everything runs on
// eng, so callers may drive it with eng.Run as well as with Fabric.Run —
// nothing crosses a cut. Protocols are attached afterwards with
// AttachProtocol (every host must have one before Run).
func New(eng *sim.Engine, t *topo.Topology, cfg Config) *Fabric {
	part, err := topo.MakePartition(t, 1)
	if err != nil {
		panic(err)
	}
	return NewSharded(sim.NewGroup([]*sim.Engine{eng}), t, cfg, part)
}

// NewSharded builds a fabric split across the group's engines according
// to the partition (one engine per shard; every engine must carry the
// same seed, which also seeds the per-device random streams). Drive it
// with Fabric.Run or RunSynced — never a member engine's Run directly —
// and close the group when done. Output is byte-identical to the same
// seed on any other shard count.
//
// The coordinator allocates the slabs and says which window of them each
// device gets; every shard then builds and wires its own devices on its
// own goroutine (Group.Each), in ascending device order — the order a
// serial pass would reach them in — so each engine creates its lanes in
// the same sequence at every shard count.
func NewSharded(grp *sim.Group, t *topo.Topology, cfg Config, part *topo.Partition) *Fabric {
	f, w := newFabric(grp, t, cfg, part)
	grp.Each(func(shard int) { f.wireShard(shard, w) })
	f.lookahead = w.lookahead()
	return f
}

// newFabric is the coordinator's share of NewSharded: the shards, the
// slabs, and the wiring every shard's wireShard reads. The fabric it
// returns has no device yet.
func newFabric(grp *sim.Group, t *topo.Topology, cfg Config, part *topo.Partition) (*Fabric, *wiring) {
	if grp.N() != part.NumShards {
		panic(fmt.Sprintf("netsim: %d engines for %d shards", grp.N(), part.NumShards))
	}
	if cfg.PortBufferBytes == 0 {
		cfg.PortBufferBytes = DefaultPortBuffer
	}
	if cfg.HostQueueBytes == 0 {
		cfg.HostQueueBytes = 1 << 40
	}
	if cfg.EnablePFC {
		if cfg.PFCPause == 0 {
			cfg.PFCPause = cfg.PortBufferBytes / 2
		}
		if cfg.PFCResume == 0 {
			cfg.PFCResume = cfg.PFCPause / 2
		}
	}
	f := &Fabric{
		eng: grp.Engine(0), topo: t, cfg: cfg,
		grp: grp, part: part,
	}
	fuse := fuseHops(t) && !pairHops
	n := grp.N()
	for i := 0; i < n; i++ {
		s := &shardState{id: i, fab: f, eng: grp.Engine(i)}
		s.hostLane = s.lane(t.HostDelay)
		if !fuse {
			s.swLane = s.lane(t.SwitchDelay)
		}
		s.counters = &f.Counters // one shard's counters are the fabric's
		if n > 1 {
			s.counters = new(Counters)
		}
		s.out[0], s.out[1] = make([]stagingRow, n), make([]stagingRow, n)
		f.shards = append(f.shards, s)
	}
	grp.SetInbox(f)

	// One slab per kind of state; every device gets a window or an element.
	// base[i] says where switch i's ports start in the port slab and what
	// id its first directed boundary link has: ids run in (switch, port)
	// order over the whole fabric, so a shard needs the count over the
	// switches before its own.
	w := &wiring{
		base:  make([]swBase, len(t.Switches)+1),
		cross: make([]sim.Duration, n),
		fuse:  fuse,
	}
	for i, sw := range t.Switches {
		links := uint64(0)
		for pi := range sw.Ports {
			if p := &sw.Ports[pi]; p.Boundary && !p.ToHost {
				links++
			}
		}
		w.base[i+1] = swBase{w.base[i].port + len(sw.Ports), w.base[i].link + links}
	}
	if w.base[len(t.Switches)].link >= maxBoundaryLinks {
		panic("netsim: too many boundary links for the arrival-band key space")
	}
	swPorts := w.base[len(t.Switches)].port
	f.switches = make([]swDev, len(t.Switches))
	f.hosts = make([]Host, t.NumHosts)
	f.ports = make([]outPort, swPorts+t.NumHosts)
	w.ingress = make([]int64, swPorts+len(t.Switches))
	if cfg.EnablePFC {
		w.paused = make([]bool, swPorts)
	}
	return f, w
}

// wiring is what newFabric works out once for every shard's wireShard —
// each switch's windows of the slabs and its first directed-link id — and
// where each wireShard leaves the one thing the fabric needs back.
type wiring struct {
	base    []swBase // per switch, plus the totals at the end
	ingress []int64
	paused  []bool // nil without PFC
	// cross[s] is the least staging latency over shard s's cross-shard
	// links, 0 when it has none; written by shard s's wireShard only.
	cross []sim.Duration
	// fuse says intra-shard hops into a switch are one event (hopFused).
	fuse bool
}

// fuseHops reports whether a hop into a switch can be one event on t —
// the forward, scheduled as the transmission starts — in the order the
// arrival and its forward a SwitchDelay later would run (DESIGN.md
// §8.1.2): whether every link's MTU serialization and propagation delay
// are shorter than SwitchDelay. It reads the topology alone.
func fuseHops(t *topo.Topology) bool {
	short := func(p *topo.Port) bool {
		return sim.TransmissionTime(packet.MTU, p.Rate) < t.SwitchDelay && p.Delay < t.SwitchDelay
	}
	if !short(&t.HostLink) {
		return false
	}
	for _, sw := range t.Switches {
		for pi := range sw.Ports {
			if !short(&sw.Ports[pi]) {
				return false
			}
		}
	}
	return true
}

// pairHops makes fabrics built while it is set keep the two-event hop
// where fuseHops holds, so the package's tests can run one fabric both
// ways and compare. A variable so tests can set it; the two hops give the
// same output, so nothing else has reason to.
var pairHops = false

// swBase is a switch's first port in the port slab and its first directed
// boundary link's id.
type swBase struct {
	port int
	link uint64
}

// lookahead is the epoch window: the least any shard found over the links
// it drives across the cut (0 when nothing crosses: one shard).
func (w *wiring) lookahead() sim.Duration {
	var min sim.Duration
	for _, c := range w.cross {
		if c != 0 && (min == 0 || c < min) {
			min = c
		}
	}
	return min
}

// wireShard builds and wires one shard's devices: its switches in id
// order, port by port, then its hosts — picked out of the partition's
// dense owner tables, a compare per device of the fabric, so no list of a
// shard's devices is ever built. It runs on the shard's goroutine
// and writes nothing outside the shard's devices and its slot of w.cross —
// a peer on another shard is only ever taken the address of, and asked
// about through the partition.
//
// Ports are initialised in place (the slab is zeroed; a literal per port
// would be built and copied), given their shard's class for the link they
// drive, and wired to their far end, so a delivery event never goes back
// to the port that sent the packet.
// A hop into a switch is the forward there, a SwitchDelay further out
// than the link's latency, where w.fuse says so (hopFused). Directed
// boundary links always deliver that way and carry their stable id —
// intra-shard on the port's own engine, cross-shard via staging (no lanes
// there: staged arrivals are scheduled at a barrier, not a constant delay
// ahead of the engine's clock).
//
// The links that cross shards also bound the epoch window: the least time
// between an event and the earliest arrival it can stage on another
// shard. Data crosses only as the fused forward, which lands a
// serialization (of a header at the least), the propagation delay and the
// peer's SwitchDelay after the transmission starts. A PFC frame is not
// fused and lands after the bare delay, so a configuration that can emit
// one keeps that floor on every crossing link.
func (f *Fabric) wireShard(shard int, w *wiring) {
	s := f.shards[shard]
	t, cfg := f.topo, &f.cfg
	seed := f.eng.Seed()
	// What a hop into a switch that stays on the shard schedules, and the
	// latency its lanes add for it.
	inner, extra := hopPair, sim.Duration(0)
	if w.fuse {
		inner, extra = hopFused, t.SwitchDelay
	}
	for i, owner := range f.part.SwitchShard {
		if int(owner) != shard {
			continue
		}
		sw := t.Switches[i]
		base, np := w.base[i].port, len(sw.Ports)
		d := &f.switches[i]
		d.sh = s
		d.ports = f.ports[base : base+np : base+np]
		d.numHosts, d.spray, d.spec = t.NumHosts, cfg.Spray, sw
		in := base + i // one ingress counter per port and one for the attached hosts
		d.ingressBytes = w.ingress[in : in+np+1 : in+np+1]
		d.rule = *sw.Rule
		if w.paused != nil {
			d.paused = w.paused[base : base : base+np]
		}
		d.src.Seed(deviceSeed(seed, 1, i))
		d.rng = *rand.New(&d.src)
		linkID := w.base[i].link
		for pi := range sw.Ports {
			p := &sw.Ports[pi]
			o := &d.ports[pi]
			o.sh, o.owner = s, d
			if p.ToHost {
				o.hop = hopHost
				o.peerHost = &f.hosts[p.Peer]
				o.class = s.wireClass(p.Rate, p.Delay, cfg.PortBufferBytes, 0)
				continue
			}
			o.peerSw = &f.switches[p.Peer]
			o.peerIn = int32(p.PeerPort)
			if !p.Boundary {
				o.hop = inner
				o.class = s.wireClass(p.Rate, p.Delay, cfg.PortBufferBytes, extra)
				continue
			}
			o.hop = hopBoundary
			o.linkID = linkID
			linkID++
			if int(f.part.SwitchShard[p.Peer]) == shard {
				o.class = s.wireClass(p.Rate, p.Delay, cfg.PortBufferBytes, t.SwitchDelay)
				continue
			}
			o.class = s.portClass(portClass{rate: p.Rate, delay: p.Delay, capacity: cfg.PortBufferBytes})
			cross := p.Delay
			if !cfg.EnablePFC {
				cross += sim.TransmissionTime(packet.HeaderSize, p.Rate) + t.SwitchDelay
			}
			if w.cross[shard] == 0 || cross < w.cross[shard] {
				w.cross[shard] = cross
			}
		}
	}
	up := t.HostLink
	nics := f.ports[len(f.ports)-len(f.hosts):]
	for h, owner := range f.part.HostShard {
		if int(owner) != shard {
			continue
		}
		host := &f.hosts[h]
		host.id, host.sh, host.nic = h, s, &nics[h]
		host.src.Seed(deviceSeed(seed, 2, h))
		host.rng = *rand.New(&host.src)
		nic := host.nic
		nic.sh, nic.hop = s, inner
		nic.class = s.wireClass(up.Rate, up.Delay, cfg.HostQueueBytes, extra)
		nic.peerSw = &f.switches[t.HostSwitch[h]]
		nic.peerIn = int32(t.HostPort[h])
	}
}

// wireClass returns the class of a port on this shard driving a link of
// the given rate and delay with the given budget, whose deliveries ride
// lanes: serialization plus propagation of each fixed size, plus extra
// (the peer's SwitchDelay where the delivery is the forward there). The
// lanes are asked for MTU first, port by port, so each engine creates
// them in the same order at every shard count.
func (s *shardState) wireClass(rate float64, delay sim.Duration, capacity int64, extra sim.Duration) *portClass {
	latency := delay + extra
	return s.portClass(portClass{
		rate: rate, delay: delay, capacity: capacity,
		laneMTU: s.lane(sim.TransmissionTime(packet.MTU, rate) + latency),
		laneHdr: s.lane(sim.TransmissionTime(packet.HeaderSize, rate) + latency),
	})
}

// Engine returns the event engine driving the fabric.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Topology returns the fabric's topology.
func (f *Fabric) Topology() *topo.Topology { return f.topo }

// Host returns host h.
func (f *Fabric) Host(h int) *Host { return &f.hosts[h] }

// AttachProtocol installs p on host h.
func (f *Fabric) AttachProtocol(h int, p Protocol) {
	f.hosts[h].proto = p
}

// ForEachHost runs fn(h) for every host: each shard's hosts in ascending
// order on that shard's goroutine, the shards side by side (Group.Each).
// It is for per-host set-up — attaching and starting protocols — which
// may touch host h, its engine and whatever else belongs to h's shard
// alone; per engine, hosts are visited in the order a serial loop would.
func (f *Fabric) ForEachHost(fn func(h int)) {
	f.grp.Each(func(shard int) {
		for h, owner := range f.part.HostShard {
			if int(owner) == shard {
				fn(h)
			}
		}
	})
}

// Start calls Start on every attached protocol, shard by shard
// (startShard): a protocol's Start may schedule on its host's engine and
// must leave state shared across hosts alone. Must run before events.
func (f *Fabric) Start() {
	for i := range f.hosts {
		if f.hosts[i].proto == nil {
			panic(fmt.Sprintf("netsim: host %d has no protocol", i))
		}
	}
	f.grp.Each(f.startShard)
}

// startShard starts the protocols of one shard's hosts, in host order.
func (f *Fabric) startShard(shard int) {
	for h, owner := range f.part.HostShard {
		if int(owner) == shard {
			host := &f.hosts[h]
			host.proto.Start(host)
		}
	}
}

// Inject schedules every flow of the trace as an arrival event at its
// sender, on the sender's shard (injectShard). Trace order within a shard
// is preserved, so arrivals tie-break identically at every shard count.
// The events read the trace when they fire: it must not change while the
// run lasts.
func (f *Fabric) Inject(tr *workload.Trace) {
	f.grp.Each(func(shard int) { f.injectShard(shard, tr) })
}

// injectKey is one flow's arrival event: its key and its trace index.
type injectKey struct {
	at  sim.Time
	seq uint64
	i   int
}

// injectShard puts the flows one shard's hosts send on a time lane of its
// own (sim.Engine.NewTimeLane), its ring sized once for them. Each flow
// keeps the key a schedule in trace order gives it — its arrival and the
// next band-0 seq, reserved walking the trace — and the lane takes them
// sorted by that key, which is the order they run in: a trace sorted by
// arrival is already, any other is sorted here. Every shard makes the
// walk, so a flow of another shard costs it the flow's record and one
// entry of the partition's dense host table, never the Host.
func (f *Fabric) injectShard(shard int, tr *workload.Trace) {
	eng := f.shards[shard].eng
	owner := f.part.HostShard
	n := 0
	for i := range tr.Flows {
		if int(owner[tr.Flows[i].Src]) == shard {
			n++
		}
	}
	if n == 0 {
		return
	}
	keys := make([]injectKey, 0, n)
	for i := range tr.Flows {
		if int(owner[tr.Flows[i].Src]) == shard {
			keys = append(keys, injectKey{tr.Flows[i].Arrival, eng.ReserveSeq(), i})
		}
	}
	slices.SortFunc(keys, func(x, y injectKey) int {
		return cmp.Or(cmp.Compare(x.at, y.at), cmp.Compare(x.seq, y.seq))
	})
	lane := eng.NewTimeLane(n)
	for _, k := range keys {
		lane.AtReserved(k.at, k.seq, injectFlow, &f.hosts[tr.Flows[k.i].Src], tr, k.i)
	}
}

// injectFlow hands flow i of the trace to its sender's protocol.
func injectFlow(a, b any, i int) {
	a.(*Host).proto.OnFlowArrival(b.(*workload.Trace).Flows[i])
}

// Host is one end host: a protocol instance plus a NIC egress queue. Hosts
// are elements of Fabric.hosts and own their random stream by value.
type Host struct {
	id    int
	sh    *shardState
	nic   *outPort // this host's element of Fabric.ports
	proto Protocol
	src   sim.CountingSource // rng's source; builds no table before its 274th draw
	rng   rand.Rand
}

// ID returns the host id.
func (h *Host) ID() int { return h.id }

// Engine returns the engine this host's events run on (the shard's
// engine; the fabric-wide engine when single-shard). Protocols must
// schedule all their timers here.
func (h *Host) Engine() *sim.Engine { return h.sh.eng }

// Lane returns the lane of delay d on the host's engine (sim.Lane), shared
// with every device and protocol of the host's shard that schedules with
// that delay. A protocol resolves its fixed-interval clocks once per shard
// at set-up: a lookup scans the shard's handful of lanes.
func (h *Host) Lane(d sim.Duration) *sim.Lane { return h.sh.lane(d) }

// Rng returns the host's private deterministic random stream. Protocols
// must draw here rather than from Engine().Rand(): per-host streams make
// draw sequences independent of cross-host event interleaving, which
// sharded execution requires.
func (h *Host) Rng() *rand.Rand { return &h.rng }

// Topo returns the topology (for RTT/BDP math in protocols).
func (h *Host) Topo() *topo.Topology { return h.sh.fab.topo }

// LineRate returns the host's access link rate in bits per second.
func (h *Host) LineRate() float64 { return h.nic.class.rate }

// NICQueuedBytes returns the bytes currently queued in the NIC, which
// window/pacing protocols use to avoid building local queues.
func (h *Host) NICQueuedBytes() int64 { return h.nic.queuedBytes }

// Send hands a packet to the NIC after the host's stack latency. The
// packet must have Src == h.ID(); the fabric owns it afterwards.
func (h *Host) Send(p *packet.Packet) {
	if p.Src != h.id {
		panic("netsim: packet Src does not match sending host")
	}
	p.SentAt = h.sh.eng.Now()
	for _, o := range h.sh.fab.obs {
		o.PacketInjected(h.id, p)
	}
	h.sh.hostLane.After(hostEnqueue, h, p, 0)
}

//lint:hotpath one event per injected packet; 0-alloc contract of BenchmarkFabricForwarding
func hostEnqueue(a, b any, _ int) {
	h := a.(*Host)
	h.nic.enqueue(b.(*packet.Packet), &h.rng)
}

// deliver passes a packet up the receive stack to the protocol.
func (h *Host) deliver(p *packet.Packet) {
	h.sh.hostLane.After(hostDeliver, h, p, 0)
}

// arriveAtHost is the delivery event of a link that ends at a host.
//
//lint:hotpath one event per delivered packet; 0-alloc contract of BenchmarkFabricForwarding
func arriveAtHost(a, b any, _ int) {
	a.(*Host).deliver(b.(*packet.Packet))
}

// hostDeliver is the fabric's delivery point and one of its two packet
// release points: once the protocol's OnPacket returns the packet is
// recycled, unless the protocol claimed it with packet.Keep.
//
//lint:hotpath one event per delivered packet; 0-alloc contract of BenchmarkFabricForwarding
func hostDeliver(a, b any, _ int) {
	h := a.(*Host)
	p := b.(*packet.Packet)
	if p.Kind == packet.Data {
		h.sh.counters.DeliveredData++
		h.sh.counters.DeliveredBytes += int64(p.Size)
	} else {
		h.sh.counters.DeliveredCtrl++
	}
	for _, o := range h.sh.fab.obs {
		o.PacketDelivered(h.id, p)
	}
	h.proto.OnPacket(p)
	packet.ReleaseUnlessKept(p)
}

// swDev is a running switch: per-port output queues plus PFC state.
// Switches are elements of Fabric.switches; what forward needs on every
// packet (shard, port window, routing rule, spray flag, stream) comes
// first and is held by value, so a forward dereferences the device and
// nothing behind it.
type swDev struct {
	sh       *shardState
	ports    []outPort      // this switch's window of Fabric.ports
	numHosts int            // copy of topo.Topology.NumHosts
	rule     topo.RouteRule // copy of spec.Rule
	spray    bool           // copy of Config.Spray

	// down marks a rebooting switch: arrivals are discarded (FaultDrops)
	// until RestoreSwitch brings the forwarding plane back.
	down bool

	src  sim.CountingSource // rng's source; builds no table before its 274th draw
	rng  rand.Rand
	spec *topo.Switch

	// ingressBytes tracks, per ingress port, bytes currently buffered in
	// this switch that arrived through that port (PFC accounting). Index
	// len(ports) is used for packets from directly attached hosts, which
	// are never paused collectively — host pause state is per host port.
	// Both are windows of per-fabric slabs; paused has length 0 until the
	// first PFC accounting on this switch (see checkPause).
	ingressBytes []int64
	paused       []bool // whether we've paused each ingress
}

// arriveAtSwitch is the delivery event of a link that ends at a switch,
// entering through its port in, on a fabric that keeps the two-event hop
// (hopPair): the forward runs a SwitchDelay later.
//
//lint:hotpath one event per packet hop on a fabric that keeps the pair; 0-alloc contract of BenchmarkFabricForwarding
func arriveAtSwitch(a, b any, in int) {
	d := a.(*swDev)
	d.sh.swLane.After(swForward, d, b.(*packet.Packet), in)
}

// swForward is a packet's hop through a switch, entering through its
// port in: the SwitchDelay after its arrival, scheduled by the arrival
// (hopPair) or, one event for the hop, by the transmission that put it on
// the link (hopFused, hopBoundary).
//
//lint:hotpath one event per packet hop; 0-alloc contract of BenchmarkFabricForwarding
func swForward(a, b any, in int) {
	a.(*swDev).forward(b.(*packet.Packet), in)
}

func (d *swDev) forward(p *packet.Packet, in int) {
	if p.Dst < 0 || p.Dst >= d.numHosts {
		panic("netsim: packet to unknown host")
	}
	if d.down {
		d.sh.counters.FaultDrops++
		d.sh.fab.dropped(p)
		return
	}
	pi, cands := d.rule.Route(p.Dst)
	if pi < 0 {
		// Multipath: spray draws from the device RNG, ECMP hashes flow
		// identity; a resolved down port consumes no randomness in either
		// mode (matching the old single-candidate table rows).
		if d.spray {
			pi = cands[d.rng.Intn(len(cands))]
		} else {
			pi = cands[ecmpHash(p.Flow, p.Src, p.Dst)%uint64(len(cands))]
		}
	}
	d.ports[pi].enqueueAt(p, d, in)
}

// ecmpHash mixes flow identity into a path choice (64-bit splitmix).
func ecmpHash(flow uint64, src, dst int) uint64 {
	x := flow*0x9e3779b97f4a7c15 + uint64(src)<<32 + uint64(dst)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MaxPortQueue returns the highest buffer occupancy any switch output
// port reached during the run, in bytes. The paper argues dcPIM bounds
// this near one BDP (token windows admit exactly one RTT of data);
// experiments and tests assert it.
func (f *Fabric) MaxPortQueue() int64 {
	var max int64
	sp := f.switchPorts()
	for i := range sp {
		if q := sp[i].maxQueued; q > max {
			max = q
		}
	}
	return max
}

// switchPorts returns the switch output ports: Fabric.ports without the
// host NICs at its end.
func (f *Fabric) switchPorts() []outPort { return f.ports[:len(f.ports)-len(f.hosts)] }
