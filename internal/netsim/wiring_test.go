package netsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// tickProto is a protocol whose Start does what dcPIM's does to an engine
// and a stream: it schedules a timer on its host's shard, so the order in
// which hosts start decides the sequence numbers an engine hands out, and
// draws from its host's stream a host-dependent number of times.
type tickProto struct{ sink }

func (p *tickProto) Start(h *Host) {
	p.sink.Start(h)
	h.Engine().Schedule(sim.Time(1+h.ID()%5), func() {})
	for i := 0; i < h.ID()%3; i++ {
		h.Rng().Int63()
	}
}

// wiredFabric is everything set-up leaves behind that a later event could
// see: each shard's counters, each switch's state (down flag, RNG draws,
// ingress bytes and PFC flags), each host's RNG draws, every port's
// static wiring, the epoch window, and the keys each engine has pending.
type wiredFabric struct {
	shards    []string
	switches  []string
	hostDraws []uint64
	ports     []string
	lookahead sim.Duration
	pending   [][]sim.EventRecord
	seqs      []uint64
}

// portWiring renders one port's static wiring. A lane is named by its
// position among its shard's lanes, which is the order the shard's engine
// created them in, and by its delay.
func portWiring(o *outPort) string {
	lane := func(l *sim.Lane) string {
		if l == nil {
			return "none"
		}
		for i, sl := range o.sh.lanes {
			if sl.lane == l {
				return fmt.Sprintf("#%d/%v", i, sl.d)
			}
		}
		return "foreign"
	}
	peer := "?"
	switch {
	case o.peerHost != nil:
		peer = fmt.Sprintf("host%d", o.peerHost.id)
	case o.peerSw != nil:
		peer = fmt.Sprintf("sw%d:%d", o.peerSw.spec.ID, o.peerIn)
	}
	owner := "nic"
	if o.owner != nil {
		owner = fmt.Sprintf("sw%d", o.owner.spec.ID)
	}
	return fmt.Sprintf("shard %d %s -> %s rate %g delay %v cap %d hop %d link %d mtu %s hdr %s",
		o.sh.id, owner, peer, o.class.rate, o.class.delay, o.class.capacity, o.hop, o.linkID, lane(o.class.laneMTU), lane(o.class.laneHdr))
}

func describeWiring(f *Fabric) wiredFabric {
	w := wiredFabric{lookahead: f.Lookahead()}
	for _, s := range f.shards {
		w.shards = append(w.shards, fmt.Sprintf("counters %+v staged %d", *s.counters, s.staged))
	}
	for i := range f.switches {
		d := &f.switches[i]
		w.switches = append(w.switches, fmt.Sprintf("down %v draws %d ingress %v paused %v",
			d.down, d.src.Draws(), d.ingressBytes, d.paused))
	}
	for i := range f.hosts {
		w.hostDraws = append(w.hostDraws, f.hosts[i].src.Draws())
	}
	for i := range f.ports {
		w.ports = append(w.ports, portWiring(&f.ports[i]))
	}
	for _, s := range f.shards {
		st := s.eng.CaptureState()
		w.pending = append(w.pending, st.Pending)
		w.seqs = append(w.seqs, st.Seq)
	}
	return w
}

func (w wiredFabric) diff(o wiredFabric) string {
	switch {
	case w.lookahead != o.lookahead:
		return fmt.Sprintf("lookahead %v vs %v", w.lookahead, o.lookahead)
	case len(w.shards) != len(o.shards) || len(w.switches) != len(o.switches) ||
		len(w.hostDraws) != len(o.hostDraws) || len(w.ports) != len(o.ports):
		return fmt.Sprintf("%d shards, %d switches, %d hosts, %d ports vs %d, %d, %d, %d",
			len(w.shards), len(w.switches), len(w.hostDraws), len(w.ports),
			len(o.shards), len(o.switches), len(o.hostDraws), len(o.ports))
	}
	for i := range w.shards {
		if w.shards[i] != o.shards[i] {
			return fmt.Sprintf("shard %d: %s vs %s", i, w.shards[i], o.shards[i])
		}
	}
	for i := range w.switches {
		if w.switches[i] != o.switches[i] {
			return fmt.Sprintf("switch %d: %s vs %s", i, w.switches[i], o.switches[i])
		}
	}
	for i := range w.hostDraws {
		if w.hostDraws[i] != o.hostDraws[i] {
			return fmt.Sprintf("host %d: %d RNG draws vs %d", i, w.hostDraws[i], o.hostDraws[i])
		}
	}
	for i := range w.ports {
		if w.ports[i] != o.ports[i] {
			return fmt.Sprintf("port %d: %s vs %s", i, w.ports[i], o.ports[i])
		}
	}
	for s := range w.pending {
		if w.seqs[s] != o.seqs[s] || len(w.pending[s]) != len(o.pending[s]) {
			return fmt.Sprintf("shard %d: next seq %d with %d pending vs %d with %d",
				s, w.seqs[s], len(w.pending[s]), o.seqs[s], len(o.pending[s]))
		}
		for k := range w.pending[s] {
			if w.pending[s][k] != o.pending[s][k] {
				return fmt.Sprintf("shard %d pending key %d: %+v vs %+v", s, k, w.pending[s][k], o.pending[s][k])
			}
		}
	}
	return ""
}

// TestShardedWiringEquivalence: building, starting and injecting a sharded
// fabric with every shard working on its own goroutine leaves exactly what
// running the same per-shard steps one after another, shard 0 first,
// leaves — shard counters, switch state, every device's RNG draws, every
// port's lanes, link id and far end, the epoch window and every engine's
// pending keys — with fewer, as many and
// more Ps than there are busy shards, with PFC on (the bare-delay window)
// and off.
func TestShardedWiringEquivalence(t *testing.T) {
	cases := []struct {
		tp     *topo.Topology
		shards int
	}{
		{topo.SmallLeafSpine().Build(), 2},
		{topo.SmallLeafSpine().Build(), 4},
		{topo.SmallFatTree().Build(), 4},
		{topo.FatTreeK(8).Build(), 8},
		{topo.FatTreeK(8).Build(), 24},
	}
	for _, c := range cases {
		tr := workload.AllToAllConfig{
			Hosts: c.tp.NumHosts, HostRate: c.tp.HostRate, Load: 0.6,
			Dist: workload.IMC10(), Horizon: 20 * sim.Microsecond, Seed: 7,
		}.Generate()
		part, err := topo.MakePartition(c.tp, c.shards)
		if err != nil {
			t.Fatal(err)
		}
		for _, pfc := range []bool{false, true} {
			cfg := Config{Spray: true, EnablePFC: pfc}
			build := func(parallel bool) wiredFabric {
				engines := make([]*sim.Engine, c.shards)
				for i := range engines {
					engines[i] = sim.NewEngine(3)
				}
				grp := sim.NewGroup(engines)
				defer grp.Close()
				attach := func(f *Fabric) {
					for h := 0; h < c.tp.NumHosts; h++ {
						f.AttachProtocol(h, &tickProto{})
					}
				}
				if parallel {
					f := NewSharded(grp, c.tp, cfg, part)
					attach(f)
					f.Start()
					f.Inject(tr)
					return describeWiring(f)
				}
				f, w := newFabric(grp, c.tp, cfg, part)
				for shard := range f.shards {
					f.wireShard(shard, w)
				}
				f.lookahead = w.lookahead()
				attach(f)
				for shard := range f.shards {
					f.startShard(shard)
				}
				for shard := range f.shards {
					f.injectShard(shard, tr)
				}
				return describeWiring(f)
			}
			name := fmt.Sprintf("%s shards=%d pfc=%v", c.tp.Name, c.shards, pfc)
			want := build(false)
			if want.lookahead == 0 || len(want.ports) == 0 {
				t.Fatalf("%s: the reference build has no window or no ports", name)
			}
			var queued int
			for _, p := range want.pending {
				queued += len(p)
			}
			if queued != c.tp.NumHosts+len(tr.Flows) {
				t.Errorf("%s: %d events pending after set-up, want one per host and one per flow (%d)",
					name, queued, c.tp.NumHosts+len(tr.Flows))
			}
			for _, procs := range []int{1, 2, 4} {
				underWatchdog(t, shardWatchdog, func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					for rep := 0; rep < 3; rep++ {
						if d := want.diff(build(true)); d != "" {
							t.Errorf("%s procs=%d: parallel set-up differs from one shard after another: %s", name, procs, d)
							return
						}
					}
				})
			}
		}
	}
}

// stagingRows counts the arrivals sitting in staging rows, either half.
func stagingRows(f *Fabric) int {
	n := 0
	for _, s := range f.shards {
		for p := range s.out {
			for d := range s.out[p] {
				n += len(s.out[p][d].q)
			}
		}
	}
	return n
}

// TestSkippedShardReceivesLateArrivals drives epochs by hand to the one
// case the epoch loop meets only by accident of timing: a destination
// shard with nothing queued is idle-skipped while arrivals staged for it
// lie beyond the barrier. The coordinator must land them — the shard's own
// goroutine is not running — so that they are on its engine, counted, and
// the rows are free for the epoch after next; and the packets must then
// arrive exactly when and in the order the serial run delivers them.
func TestSkippedShardReceivesLateArrivals(t *testing.T) {
	tp := topo.SmallLeafSpine().Build() // two racks: hosts 0-3 and 4-7
	const horizon = sim.Time(100 * sim.Microsecond)
	// Three senders of rack 0 at one instant: the forwards they stage land
	// at the same picoseconds on different links, so only the keys order
	// them.
	send := func(f *Fabric) {
		for h := 0; h < 3; h++ {
			f.Host(h).Send(packet.NewData(h, 4+h, uint64(h), 0, packet.MTU, packet.PrioDataHigh))
			f.Host(h).Send(packet.NewControl(packet.Token, h, 4+h, uint64(h)))
		}
	}
	underWatchdog(t, shardWatchdog, func() {
		serial, want, closeSerial := shardedFabric(t, tp, 1, Config{Spray: true})
		defer closeSerial()
		send(serial)
		serial.Run(horizon)

		f, got, closeGroup := shardedFabric(t, tp, 2, Config{Spray: true})
		defer closeGroup()
		if f.ShardOfHost(0) != 0 || f.ShardOfHost(4) != 1 {
			t.Errorf("hosts 0 and 4 on shards %d and %d, want 0 and 1", f.ShardOfHost(0), f.ShardOfHost(4))
			return
		}
		send(f)
		// epoch is RunSynced's loop body with the barrier chosen here; any
		// barrier short of a window past the earliest pending event is
		// conservative.
		epoch := func(barrier sim.Time) {
			f.barrier = barrier
			f.grp.RunEpoch(barrier)
			f.parity = 1 - f.parity
		}
		next := func() sim.Time {
			m, ok := f.grp.NextAt()
			if !ok {
				t.Fatalf("nothing pending with %d of 6 packets delivered", len(got[4].received)+len(got[5].received)+len(got[6].received))
			}
			return m
		}
		// Step one event-instant at a time until rack 0 has staged toward
		// shard 1 and shard 1 has nothing of its own to do.
		dst := f.shards[1]
		for stagingRows(f) == 0 || dst.eng.Pending() > 0 {
			if f.grp.Now() > sim.Time(10*sim.Microsecond) {
				t.Errorf("no arrival staged for an idle shard 1 within 10 µs")
				return
			}
			epoch(next())
		}
		staged := stagingRows(f)
		at, ok := f.InboundAt(1)
		if !ok || at <= f.grp.Now() {
			t.Errorf("InboundAt(1) = %v, %v with %d arrivals staged at %v", at, ok, staged, f.grp.Now())
			return
		}
		// One epoch that ends before the earliest staged arrival: shard 1
		// has no event inside it and must be skipped, not dispatched.
		skipped, landed := f.grp.Skipped(1), dst.staged
		epoch(at - 1)
		if f.grp.Skipped(1) != skipped+1 {
			t.Errorf("shard 1 skipped %d epochs, want %d: an arrival beyond the barrier is not work inside the window", f.grp.Skipped(1), skipped+1)
		}
		if dst.staged != landed+uint64(staged) || dst.eng.Pending() != staged {
			t.Errorf("after the skipped epoch: landed %d of %d, %d pending on the engine",
				dst.staged-landed, staged, dst.eng.Pending())
		}
		for _, src := range f.shards {
			// The half the next epoch appends to must be free again.
			if n := len(src.out[f.parity][1].q); n != 0 {
				t.Errorf("after the skipped epoch: shard %d's row for shard 1 still holds %d arrivals", src.id, n)
			}
		}
		if m, _ := dst.eng.NextAt(); m != at {
			t.Errorf("shard 1's earliest event at %v, want the staged arrival's %v", m, at)
		}
		f.Run(horizon)
		for h := range want {
			if a, b := delivered(want)[h], delivered(got)[h]; strings.Join(a, "\n") != strings.Join(b, "\n") {
				t.Errorf("host %d received\n%s\nserial run\n%s", h, strings.Join(b, "\n"), strings.Join(a, "\n"))
			}
		}
		if n := len(got[4].received) + len(got[5].received) + len(got[6].received); n != 6 {
			t.Errorf("%d of 6 packets delivered", n)
		}
		if errs := f.AuditVerify(); len(errs) != 0 {
			t.Errorf("packet conservation audit failed:\n%s", strings.Join(errs, "\n"))
		}
	})
}

// TestStagingEmptyAtSyncPoints: whatever an epoch staged, no arrival is
// left in a staging row when an atSync callback runs or when RunSynced
// returns — the points where callers sample, capture and resume — on two
// shards and on the topology's own count, with and without an interval,
// and across successive windows as the checkpoint drivers call it. The
// 432-host FatTree shards itself 6 ways.
func TestStagingEmptyAtSyncPoints(t *testing.T) {
	tp := topo.FatTreeK(12).Build()
	auto := topo.AutoShards(tp)
	if auto < 4 {
		t.Fatalf("%s resolves to %d shards; the test wants a topology that shards itself", tp.Name, auto)
	}
	const horizon = 30 * sim.Microsecond
	n := tp.NumHosts
	for _, shards := range []int{2, auto} {
		for _, interval := range []sim.Duration{0, 3 * sim.Microsecond} {
			underWatchdog(t, shardWatchdog, func() {
				f, _, closeGroup := shardedFabric(t, tp, shards, Config{Spray: true})
				defer closeGroup()
				for h := 0; h < n; h++ {
					h, host := h, f.Host(h)
					for k := 0; k < 20; k++ {
						k := k
						f.HostEngine(h).Schedule(sim.Time(k)*sim.Time(sim.Microsecond), func() {
							host.Send(packet.NewData(h, (h+n/2+k)%n, uint64(h), k, packet.MTU, packet.PrioDataHigh))
						})
					}
				}
				name := fmt.Sprintf("shards=%d interval=%v", shards, interval)
				syncs := 0
				var before uint64
				for _, until := range []sim.Time{sim.Time(horizon / 3), sim.Time(horizon / 3), sim.Time(horizon)} {
					f.RunSynced(until, interval, func(now sim.Time) {
						syncs++
						if rows := stagingRows(f); rows != 0 {
							t.Errorf("%s: %d arrivals in staging rows inside atSync at %v", name, rows, now)
						}
					})
					if rows := stagingRows(f); rows != 0 {
						t.Errorf("%s: %d arrivals in staging rows after RunSynced(%v)", name, rows, until)
					}
					if _, ok := f.grp.NextAt(); ok {
						if m, _ := f.grp.NextAt(); m <= until {
							t.Errorf("%s: an event at %v is still pending after RunSynced(%v)", name, m, until)
						}
					}
				}
				for _, s := range f.ShardStats() {
					before += s.Staged
				}
				if before == 0 {
					t.Errorf("%s: nothing was staged across the cut", name)
				}
				if want := 0; interval > 0 {
					if want = int(horizon / interval); syncs != want {
						t.Errorf("%s: %d sync points, want %d", name, syncs, want)
					}
				}
				if errs := f.AuditVerify(); len(errs) != 0 {
					t.Errorf("%s: packet conservation audit failed:\n%s", name, strings.Join(errs, "\n"))
				}
			})
		}
	}
}
