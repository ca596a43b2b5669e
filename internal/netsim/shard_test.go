package netsim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
)

// TestBandKeyPacking pins the bit split and the range guards: link id
// and sequence must round-trip through the packed key at their limits,
// and one past either limit must panic rather than silently bleed into
// the neighboring field (which would corrupt cross-shard arrival order).
func TestBandKeyPacking(t *testing.T) {
	cases := []struct{ link, seq uint64 }{
		{0, 0},
		{0, maxArrSeq - 1},
		{maxBoundaryLinks - 1, 0},
		{maxBoundaryLinks - 1, maxArrSeq - 1},
	}
	for _, c := range cases {
		k := bandKey(c.link, c.seq)
		if k>>arrSeqBits != c.link || k&(maxArrSeq-1) != c.seq {
			t.Fatalf("bandKey(%d, %d) = %#x does not round-trip", c.link, c.seq, k)
		}
		if k>>63 != 0 {
			t.Fatalf("bandKey(%d, %d) = %#x collides with the arrival band bit", c.link, c.seq, k)
		}
	}
	// Ordering: higher link id sorts after every sequence of a lower one.
	if !(bandKey(1, 0) > bandKey(0, maxArrSeq-1)) {
		t.Fatal("link id must dominate sequence in the packed order")
	}

	mustPanic(t, "link overflow", func() { bandKey(maxBoundaryLinks, 0) })
	mustPanic(t, "seq overflow", func() { bandKey(0, maxArrSeq) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

// underWatchdog runs body on a goroutine of its own and fails the test
// with a dump of every goroutine if body has not returned within limit
// (the sim package's sharded tests run under the same guard): a lost
// wake-up at the barrier shows up in seconds with the stuck stacks. body
// reports through t.Errorf and returns; it must not call t.Fatal.
func underWatchdog(t *testing.T, limit time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(limit):
		buf := make([]byte, 1<<20)
		t.Fatalf("no return within %v\n%s", limit, buf[:runtime.Stack(buf, true)])
	}
}

const shardWatchdog = 20 * time.Second

// shardedFabric builds tp on the given number of shards with a sink on
// every host and the conservation auditor on, and returns a function that
// closes the group. One shard gives the serial reference through the same
// constructor.
func shardedFabric(t *testing.T, tp *topo.Topology, shards int, cfg Config) (*Fabric, []*sink, func()) {
	t.Helper()
	part, err := topo.MakePartition(tp, shards)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*sim.Engine, shards)
	for i := range engines {
		engines[i] = sim.NewEngine(1)
	}
	grp := sim.NewGroup(engines)
	f := NewSharded(grp, tp, cfg, part)
	f.EnableAudit()
	sinks := make([]*sink, tp.NumHosts)
	for i := range sinks {
		sinks[i] = &sink{}
		f.AttachProtocol(i, sinks[i])
	}
	f.Start()
	return f, sinks, grp.Close
}

// TestWindowDerivedFromCut pins the epoch window per topology: with only
// fused data forwards crossing the cut it is propagation + a header's
// serialization on the boundary link + the peer's SwitchDelay; a fabric
// that can emit PFC frames keeps the bare propagation delay, which is
// also all topo.Partition.Lookahead ever says; one shard has no window.
func TestWindowDerivedFromCut(t *testing.T) {
	const ps = sim.Duration(1)
	cases := []struct {
		tp     *topo.Topology
		shards []int
		data   sim.Duration // 64 B at the boundary rate + 200 ns + 450 ns
	}{
		{topo.SmallLeafSpine().Build(), []int{2, 4}, 651_280 * ps},           // 400 G spine links
		{topo.OversubscribedLeafSpine().Build(), []int{2, 13}, 652_560 * ps}, // 200 G
		{topo.TestbedLeafSpine().Build(), []int{2, 4}, 701_200 * ps},         // 10 G
		{topo.SmallFatTree().Build(), []int{2, 4, 8}, 655_120 * ps},          // 100 G
	}
	for _, c := range cases {
		for _, shards := range c.shards {
			for _, pfc := range []bool{false, true} {
				f, _, closeGroup := shardedFabric(t, c.tp, shards, Config{Spray: true, EnablePFC: pfc})
				want := c.data
				if pfc {
					want = 200 * sim.Nanosecond
					if part, _ := topo.MakePartition(c.tp, shards); part.Lookahead != want {
						t.Errorf("%s shards=%d: partition lookahead %v, want the %v propagation delay", c.tp.Name, shards, part.Lookahead, want)
					}
				}
				if got := f.Lookahead(); got != want {
					t.Errorf("%s shards=%d pfc=%v: window %v, want %v", c.tp.Name, shards, pfc, got, want)
				}
				closeGroup()
			}
		}
		f, _, closeGroup := shardedFabric(t, c.tp, 1, Config{Spray: true})
		if got := f.Lookahead(); got != 0 {
			t.Errorf("%s: single-shard window %v, want 0", c.tp.Name, got)
		}
		closeGroup()
	}
}

// crossTraffic schedules the traffic of the boundary tests on a fabric
// over SmallLeafSpine. First two probes from host 0 to host 4, a bare
// header and then an odd size, each alone in the fabric: with nothing
// else pending every hop opens an epoch, so the probe starts onto each
// boundary link at the epoch's first instant and its staged forward lands
// exactly one window later, one picosecond past the barrier. Then a 4:1
// incast each way between the racks — MTU, header and odd sizes colliding
// on the spine ports at the same picosecond — which a PFC configuration
// turns into pause and resume frames across the cut. Returns the number
// of packets sent.
func crossTraffic(f *Fabric) int {
	n := f.Topology().NumHosts
	send := func(at sim.Duration, src int, mk func() *packet.Packet) {
		host := f.Host(src)
		f.HostEngine(src).Schedule(sim.Time(at), func() { host.Send(mk()) })
	}
	send(0, 0, func() *packet.Packet { return packet.NewControl(packet.Token, 0, 4, 1) })
	send(20*sim.Microsecond, 0, func() *packet.Packet { return packet.NewData(0, 4, 2, 0, 777, packet.PrioShort) })
	sent := 2
	for h := 0; h < n; h++ {
		h, dst := h, 4
		if h >= n/2 {
			dst = 0
		}
		if h == dst {
			continue
		}
		for burst := 0; burst < 10; burst++ {
			flow := uint64(100*h + burst)
			at := 40*sim.Microsecond + sim.Duration(burst)*700*sim.Nanosecond
			for k := 0; k < 4; k++ {
				k := k
				send(at, h, func() *packet.Packet { return packet.NewData(h, dst, flow, 3*k, packet.MTU, packet.PrioDataHigh) })
				send(at, h, func() *packet.Packet { return packet.NewControl(packet.Ack, h, dst, flow) })
				send(at, h, func() *packet.Packet { return packet.NewData(h, dst, flow, 3*k+1, 300+41*h+k, packet.PrioShort) })
				sent += 3
			}
		}
	}
	return sent
}

// delivered renders every host's delivered stream, in arrival order.
func delivered(sinks []*sink) [][]string {
	out := make([][]string, len(sinks))
	for h, s := range sinks {
		for i, p := range s.received {
			out[h] = append(out[h], fmt.Sprintf("%v flow %d seq %d size %d kind %d", s.at[i], p.Flow, p.Seq, p.Size, p.Kind))
		}
	}
	return out
}

// TestShardedBoundaryFirstInstant: two and four shards deliver the serial
// run's stream — same packets, same picoseconds, same order at every host
// — when packets start onto a boundary link at an epoch's first instant
// (the case the derived window is tight for), under colliding mixed-size
// load, and with PFC back-pressure crossing the cut both ways.
func TestShardedBoundaryFirstInstant(t *testing.T) {
	tp := topo.SmallLeafSpine().Build()
	const horizon = sim.Time(200 * sim.Microsecond)
	for _, pfc := range []bool{false, true} {
		cfg := Config{Spray: true}
		if pfc {
			cfg.EnablePFC, cfg.PFCPause, cfg.PFCResume = true, 12_000, 6_000
		}
		var want [][]string
		var wantCounters Counters
		for _, shards := range []int{1, 2, 4} {
			underWatchdog(t, shardWatchdog, func() {
				f, sinks, closeGroup := shardedFabric(t, tp, shards, cfg)
				defer closeGroup()
				sent := crossTraffic(f)
				f.Run(horizon)
				name := fmt.Sprintf("pfc=%v shards=%d", pfc, shards)
				if errs := f.AuditVerify(); len(errs) != 0 {
					t.Errorf("%s: packet conservation audit failed:\n%s", name, strings.Join(errs, "\n"))
				}
				got := delivered(sinks)
				if shards == 1 {
					want, wantCounters = got, f.Counters
					if n := len(got[0]) + len(got[4]); n != sent {
						t.Errorf("%s: delivered %d of %d packets", name, n, sent)
					}
					if pfc && (f.Counters.PFCPauses == 0 || f.Counters.PFCPauses != f.Counters.PFCResumes) {
						t.Errorf("%s: %d pauses, %d resumes; the incast must exert and release back-pressure",
							name, f.Counters.PFCPauses, f.Counters.PFCResumes)
					}
					return
				}
				if f.Counters != wantCounters {
					t.Errorf("%s: counters %+v, serial %+v", name, f.Counters, wantCounters)
				}
				for h := range want {
					if len(got[h]) != len(want[h]) {
						t.Errorf("%s: host %d received %d packets, serial %d", name, h, len(got[h]), len(want[h]))
						continue
					}
					for i := range want[h] {
						if got[h][i] != want[h][i] {
							t.Errorf("%s: host %d delivery %d: %s, serial %s", name, h, i, got[h][i], want[h][i])
							break
						}
					}
				}
				var staged uint64
				for _, s := range f.ShardStats() {
					staged += s.Staged
				}
				if staged == 0 {
					t.Errorf("%s: nothing was staged across the cut", name)
				}
			})
		}
	}
}

// TestWindowBoundsEpochs: every epoch but the last advances the barrier by
// at least one window, so a run takes at most horizon/window + 1 of them
// however busy it is — and a busy one takes about that many. The
// barrier-overhead counters must add up on the way: every shard is
// dispatched or skipped in every epoch, and the critical path lies
// between the busiest shard's events and the total. One shard has no
// window: it runs the same loop, dispatched in every epoch, and each of
// its events is on the critical path.
func TestWindowBoundsEpochs(t *testing.T) {
	tp := topo.SmallFatTree().Build()
	const horizon = 100 * sim.Microsecond
	for _, shards := range []int{1, 2, 4} {
		underWatchdog(t, shardWatchdog, func() {
			f, _, closeGroup := shardedFabric(t, tp, shards, Config{Spray: true})
			defer closeGroup()
			n := tp.NumHosts
			for h := 0; h < n; h++ {
				h, host := h, f.Host(h)
				for at := sim.Duration(0); at < horizon; at += 500 * sim.Nanosecond {
					seq := int(at / (500 * sim.Nanosecond))
					f.HostEngine(h).Schedule(sim.Time(at), func() {
						host.Send(packet.NewData(h, (h+n/2+seq)%n, uint64(h), seq, packet.MTU, packet.PrioDataHigh))
					})
				}
			}
			f.Run(sim.Time(horizon + 20*sim.Microsecond))

			w := f.Lookahead()
			epochs := f.Epochs()
			if shards == 1 {
				s := f.ShardStats()[0]
				if w != 0 || epochs < 1 || s.Dispatched != epochs || s.Critical != s.Events {
					t.Errorf("one shard: window %v, %d epochs, dispatched %d, critical %d of %d events; want 0, >= 1, all epochs, all events",
						w, epochs, s.Dispatched, s.Critical, s.Events)
				}
				return
			}
			if most := uint64((horizon+20*sim.Microsecond)/w) + 2; epochs > most {
				t.Errorf("shards=%d: %d epochs of a %v window, want at most %d", shards, epochs, w, most)
			}
			if epochs < uint64(horizon/w)/2 {
				t.Errorf("shards=%d: only %d epochs of a %v window; the run was not busy", shards, epochs, w)
			}
			var events, critical, busiest uint64
			for _, s := range f.ShardStats() {
				if s.Dispatched+s.Skipped != epochs {
					t.Errorf("shards=%d: shard %d dispatched %d + skipped %d of %d epochs", shards, s.Shard, s.Dispatched, s.Skipped, epochs)
				}
				events += s.Events
				critical += s.Critical
				if s.Events > busiest {
					busiest = s.Events
				}
			}
			if critical < busiest || critical > events {
				t.Errorf("shards=%d: critical path %d events, want within [%d busiest shard, %d total]", shards, critical, busiest, events)
			}
		})
	}
}

// TestWindowTooWideTripsGuard installs a window one SwitchDelay wider than
// the fabric can stage and sends one header across the cut: the first
// epoch that opens on a boundary transmission must end in stage's panic —
// the violation caught where it is made, not downstream as a delivery out
// of order. Host 0 sends toward the other shard only, so every staging
// call runs on shard 0, which is the coordinator's (this) goroutine.
func TestWindowTooWideTripsGuard(t *testing.T) {
	tp := topo.SmallLeafSpine().Build()
	underWatchdog(t, shardWatchdog, func() {
		f, sinks, closeGroup := shardedFabric(t, tp, 2, Config{Spray: true})
		defer closeGroup()
		if f.ShardOfHost(0) != 0 || f.ShardOfHost(4) != 1 {
			t.Errorf("hosts 0 and 4 on shards %d and %d, want 0 and 1", f.ShardOfHost(0), f.ShardOfHost(4))
			return
		}
		f.lookahead += tp.SwitchDelay
		f.Host(0).Send(packet.NewControl(packet.Token, 0, 4, 1))
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "inside the epoch ending at") {
				t.Errorf("recovered %q, want the staging guard's panic", msg)
			}
		}()
		f.Run(sim.Time(50 * sim.Microsecond))
		t.Errorf("a window of %v ran to completion (%d delivered); the guard never fired", f.Lookahead(), len(sinks[4].received))
	})
}
