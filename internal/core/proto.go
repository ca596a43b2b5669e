package core

import (
	"math/rand"

	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/workload"
)

// Proto is one host's dcPIM instance: it plays both the sender and the
// receiver role simultaneously. It implements netsim.Protocol.
type Proto struct {
	sh  *shared // one value shared by every host Attach wires
	col *stats.Collector

	host *netsim.Host
	eng  *sim.Engine
	clk  *clocks    // lanes shared by the shard's hosts
	rng  *rand.Rand // aliases the host's stream
	id   int

	tick  int64 // stage ticks elapsed
	epoch int64 // current epoch (data phase) index

	snd sender
	rcv receiver
}

// shared is what every host of one fabric holds alike: the Config, the
// timing derived from it and the topology, and the telemetry. Attach makes
// one for the fabric.
type shared struct {
	cfg Config
	ins instruments
	timing
}

func (cfg Config) validate() {
	if cfg.Rounds < 1 || cfg.Channels < 1 || cfg.Beta <= 0 {
		panic("core: invalid dcPIM config")
	}
}

// clocks are the lanes (sim.Lane) of one shard's engine that dcPIM's
// fixed-interval events ride, under the keys AfterFunc would give them:
// the stage tick re-arms stageLen after it runs, the pacer mtuTime after
// it runs, and a kicked pacer — or a first tick due at once — goes on the
// zero-delay lane.
type clocks struct {
	stage, pace, now *sim.Lane
}

// newClocks resolves the clocks of h's shard.
func newClocks(h *netsim.Host, tm *timing) clocks {
	return clocks{stage: h.Lane(tm.stageLen), pace: h.Lane(tm.mtuTime), now: h.Lane(0)}
}

// Attach creates a dcPIM instance on every host of the fabric, all sharing
// cfg and one derived timing, and returns them. The instances are one
// allocation and the senders' per-round grant bookkeeping (r entries per
// host, pointer-free) another: a host gets an element and a window of the
// slabs, filled in place on its own shard's goroutine
// (Fabric.ForEachHost), and the clocks its shard's first host resolved.
// Each instance records into col's child collector for its host's shard,
// so completions never contend across shards; col's readers merge the
// children deterministically. Attach registers the instruments on col.
func Attach(fab *netsim.Fabric, cfg Config, col *stats.Collector) []*Proto {
	cfg.validate()
	// Registration grows every shard's slots, so it runs here, before the
	// fill below runs on the shard goroutines.
	sh := &shared{cfg: cfg, ins: newInstruments(col, cfg.Rounds), timing: deriveTiming(cfg, fab.Topology())}
	n, r := fab.Topology().NumHosts, cfg.Rounds
	slab := make([]Proto, n)
	protos := make([]*Proto, n)
	rounds := make([]roundState, n*r)
	clk := make([]clocks, fab.NumShards())
	// The child collectors are made here, on one goroutine, up to the last
	// shard that has a host: ForEachHost runs the fill below on the shard
	// goroutines side by side, and ForShard grows its child list on first
	// use, so the fill may only look them up.
	last := 0
	for h := 0; h < n; h++ {
		if s := fab.ShardOfHost(h); s > last {
			last = s
		}
	}
	col.ForShard(last)
	fab.ForEachHost(func(h int) {
		p := &slab[h]
		p.sh = sh
		shard := fab.ShardOfHost(h)
		p.col = col.ForShard(shard)
		if clk[shard].stage == nil {
			clk[shard] = newClocks(fab.Host(h), &sh.timing)
		}
		p.clk = &clk[shard]
		p.snd.rounds = rounds[h*r : h*r : (h+1)*r]
		protos[h] = p
		fab.AttachProtocol(h, p)
	})
	return protos
}

// Start implements netsim.Protocol: launches the per-stage ticker driving
// the matching state machine, on the timing and clocks Attach shared. A
// first tick due now rides the zero-delay lane, under the key
// ScheduleFunc would have given it; only a skewed one is queued.
func (p *Proto) Start(h *netsim.Host) {
	p.host = h
	p.eng = h.Engine()
	p.rng = h.Rng()
	p.id = h.ID()
	p.snd.init(p)
	p.rcv.init(p)
	p.epoch = -1 // first onStage call (tick 0) opens epoch 0
	start := sim.Time(0)
	if p.sh.cfg.MaxClockSkew > 0 {
		start = start.Add(sim.Duration(p.rng.Int63n(int64(p.sh.cfg.MaxClockSkew))))
	}
	if start == p.eng.Now() {
		p.clk.now.After(onStageFunc, p, nil, 0)
	} else {
		p.eng.ScheduleFunc(start, onStageFunc, p, nil, 0)
	}
}

// onStageFunc is the stage ticker's argument-form trampoline: the event
// carries the instance, so neither Start nor a tick allocates a method
// value.
func onStageFunc(a, _ any, _ int) { a.(*Proto).onStage() }

// onStage fires every stage length; stage index cycles through the 2r+1
// stages of the pipelined matching phase. Each host uses only its local
// clock (§3.5 asynchronous design).
func (p *Proto) onStage() {
	stage := int(p.tick % int64(p.sh.stages))
	if stage == 0 {
		p.epoch++
		p.snd.onEpochStart(p.epoch)
		p.rcv.onEpochStart(p.epoch)
	}
	// The matching being computed during epoch e serves the data phase of
	// epoch e+1.
	matchEpoch := p.epoch + 1
	if stage%2 == 0 {
		round := stage / 2
		if round > 0 {
			p.rcv.acceptStage(matchEpoch, round-1)
		}
		if round < p.sh.cfg.Rounds {
			p.rcv.requestStage(matchEpoch, round)
		}
	} else {
		round := (stage - 1) / 2
		p.snd.grantStage(matchEpoch, round)
	}
	p.tick++
	p.clk.stage.After(onStageFunc, p, nil, 0)
}

// OnFlowArrival implements netsim.Protocol (sender role).
func (p *Proto) OnFlowArrival(f workload.Flow) {
	p.snd.flowArrival(f)
}

// OnPacket implements netsim.Protocol, dispatching by kind to the sender
// or receiver half.
//
// It is the per-packet path of every dcPIM packet: TestPacerMallocsPerPacket
// holds it, and all it calls, to a steady-state malloc budget per packet.
func (p *Proto) OnPacket(pkt *packet.Packet) {
	switch pkt.Kind {
	case packet.Data:
		p.rcv.onData(pkt)
	case packet.Notification:
		p.rcv.onNotification(pkt)
	case packet.FinishSender:
		p.rcv.onFinishSender(pkt)
	case packet.RTS:
		p.snd.onRTS(pkt)
	case packet.Accept:
		p.snd.onAccept(pkt)
	case packet.Token:
		p.snd.onToken(pkt)
	case packet.NotificationAck:
		p.snd.onNotificationAck(pkt)
	case packet.FinishReceiver:
		p.snd.onFinishReceiver(pkt)
	case packet.Grant:
		p.rcv.onGrant(pkt)
	}
}

// send stamps and transmits a packet from this host.
func (p *Proto) send(pkt *packet.Packet) {
	pkt.Src = p.id
	p.host.Send(pkt)
}
