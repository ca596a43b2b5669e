// Package faults provides deterministic, scripted fault injection for the
// netsim fabric. A Schedule is a timeline of typed events — link flaps,
// degraded links, loss bursts, switch reboots, host pauses — installed
// as ordinary timers on the engines owning the affected devices, so a
// faulted run is exactly as hermetic and reproducible as a clean one:
// byte-identical under experiments.RunMany at any worker count and at
// any fabric shard count.
//
// A schedule is either a literal []Event (tests) or the seeded Generate
// (the resilience grid, parameterized by intensity).
package faults

import (
	"fmt"
	"sort"

	"dcpim/internal/netsim"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
)

// Kind identifies a fault event type.
type Kind uint8

const (
	// LinkDown takes both directions of a link dark at At. Queued packets
	// stay buffered; transmitters halt. With Dur > 0 the link restores
	// itself at At+Dur, otherwise it stays down until a matching LinkUp.
	LinkDown Kind = iota
	// LinkUp restores a downed link at At.
	LinkUp
	// LinkDegrade sets a persistent per-packet loss probability Rate on
	// both directions at At (failing optics). Dur > 0 heals the link at
	// At+Dur; Dur == 0 degrades it for the rest of the run.
	LinkDegrade
	// LossBurst drops packets with probability Rate on both directions
	// during [At, At+Dur) — a transient event (microwave fade, FEC storm).
	LossBurst
	// SwitchReboot takes every port of a switch down and discards
	// arrivals during [At, At+Dur). Drain selects what happens to the
	// buffered packets.
	SwitchReboot
	// HostPause halts a host's NIC transmitter during [At, At+Dur) — an
	// OS stall or VM migration blackout. Inbound delivery still works.
	HostPause
)

var kindNames = [...]string{
	"linkdown", "linkup", "degrade", "burst", "reboot", "hostpause",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// DrainPolicy selects what a rebooting switch does with buffered packets.
type DrainPolicy uint8

const (
	// DrainDrop flushes the buffers; the packets count as FaultDrops
	// (cold reboot — the usual case).
	DrainDrop DrainPolicy = iota
	// DrainKeep preserves the buffers across the reboot (warm
	// control-plane restart); they resume draining on restore.
	DrainKeep
)

// Event is one fault on the timeline. Link events name the transmit side
// (Switch, Port) of a full-duplex link; the installer applies them to
// both directions, resolving the reverse side through the topology.
// Events apply in timeline order; overlapping events touching the same
// element resolve last-writer-wins.
type Event struct {
	Kind   Kind
	At     sim.Time
	Dur    sim.Duration // see each Kind for whether it is required
	Switch int          // link and reboot events
	Port   int          // link events
	Host   int          // HostPause
	Rate   float64      // LinkDegrade, LossBurst: drop probability in [0, 1]
	Drain  DrainPolicy  // SwitchReboot
}

// Schedule is an ordered fault timeline.
type Schedule struct {
	Events []Event
}

// Sort orders events by time, preserving input order for ties.
func (s *Schedule) Sort() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		return s.Events[i].At < s.Events[j].At
	})
}

// needsDur reports whether the kind requires a positive duration.
func (k Kind) needsDur() bool {
	return k == LossBurst || k == SwitchReboot || k == HostPause
}

// check validates an event's internal invariants (no topology needed).
func (ev *Event) check(i int) error {
	if int(ev.Kind) >= len(kindNames) {
		return fmt.Errorf("event %d: unknown kind %d", i, ev.Kind)
	}
	if ev.At < 0 {
		return fmt.Errorf("event %d (%s): negative time %v", i, ev.Kind, ev.At)
	}
	if ev.Dur < 0 {
		return fmt.Errorf("event %d (%s): negative duration %v", i, ev.Kind, ev.Dur)
	}
	if ev.Kind.needsDur() && ev.Dur == 0 {
		return fmt.Errorf("event %d (%s): duration required", i, ev.Kind)
	}
	if !(ev.Rate >= 0 && ev.Rate <= 1) { // NaN fails both
		return fmt.Errorf("event %d (%s): rate %v outside [0, 1]", i, ev.Kind, ev.Rate)
	}
	if (ev.Kind == LinkDegrade || ev.Kind == LossBurst) && ev.Rate == 0 {
		return fmt.Errorf("event %d (%s): rate required", i, ev.Kind)
	}
	if ev.Switch < 0 || ev.Port < 0 || ev.Host < 0 {
		return fmt.Errorf("event %d (%s): negative element id", i, ev.Kind)
	}
	return nil
}

// Validate checks every event against the topology: ids in range, times
// and rates well-formed. Install panics on out-of-range ids, so callers
// feeding untrusted schedules must Validate first.
func (s *Schedule) Validate(t *topo.Topology) error {
	for i := range s.Events {
		ev := &s.Events[i]
		if err := ev.check(i); err != nil {
			return err
		}
		switch ev.Kind {
		case LinkDown, LinkUp, LinkDegrade, LossBurst:
			if ev.Switch >= len(t.Switches) {
				return fmt.Errorf("event %d (%s): switch %d outside topology (%d switches)",
					i, ev.Kind, ev.Switch, len(t.Switches))
			}
			if ev.Port >= len(t.Switches[ev.Switch].Ports) {
				return fmt.Errorf("event %d (%s): port %d outside switch %d (%d ports)",
					i, ev.Kind, ev.Port, ev.Switch, len(t.Switches[ev.Switch].Ports))
			}
		case SwitchReboot:
			if ev.Switch >= len(t.Switches) {
				return fmt.Errorf("event %d (%s): switch %d outside topology (%d switches)",
					i, ev.Kind, ev.Switch, len(t.Switches))
			}
		case HostPause:
			if ev.Host >= t.NumHosts {
				return fmt.Errorf("event %d (%s): host %d outside topology (%d hosts)",
					i, ev.Kind, ev.Host, t.NumHosts)
			}
		}
	}
	return nil
}

// end returns the time of the event's restore action, if it has one.
func (ev *Event) end() (sim.Time, bool) {
	switch ev.Kind {
	case LinkDown, LinkDegrade:
		if ev.Dur > 0 {
			return ev.At.Add(ev.Dur), true
		}
	case SwitchReboot, HostPause:
		return ev.At.Add(ev.Dur), true
	}
	return 0, false
}

// Install schedules the fault timeline onto the fabric. Must be called
// before the clock passes the earliest event (normally before the run
// starts); the schedule must outlive the run and not be mutated after.
//
// Each fault action mutates one device, and devices belong to shards, so
// the installer schedules every action on the engine that owns the
// affected device: a link event becomes two timers — the named transmit
// side on its switch's engine, the reverse side on the peer's — which on
// a sharded fabric may be different engines. Both fire at the same
// simulation instant, and the two sides of a link never race (each timer
// touches only its own side), so faulted runs stay byte-identical at
// every shard count.
func Install(fab *netsim.Fabric, s *Schedule) {
	for i := range s.Events {
		ev := &s.Events[i]
		installSide(fab, ev, sideNamed)
		switch ev.Kind {
		case LinkDown, LinkUp, LinkDegrade, LossBurst:
			installSide(fab, ev, sideReverse)
		}
	}
}

// Sides of a link event, carried in the timer's int payload.
const (
	sideNamed   = 0 // the (Switch, Port) transmit side the event names
	sideReverse = 1 // the opposite direction, resolved via the topology
)

// installSide schedules one side's start (and restore, if any) timers on
// the engine owning that side's device.
func installSide(fab *netsim.Fabric, ev *Event, side int) {
	eng := sideEngine(fab, ev, side)
	eng.ScheduleFunc(ev.At, applyStart, fab, ev, side)
	if end, ok := ev.end(); ok {
		eng.ScheduleFunc(end, applyEnd, fab, ev, side)
	}
}

// sideEngine returns the engine owning the device a side's action mutates.
func sideEngine(fab *netsim.Fabric, ev *Event, side int) *sim.Engine {
	switch ev.Kind {
	case SwitchReboot:
		return fab.SwitchEngine(ev.Switch)
	case HostPause:
		return fab.HostEngine(ev.Host)
	}
	if side == sideNamed {
		return fab.SwitchEngine(ev.Switch)
	}
	spec := fab.Topology().Switches[ev.Switch].Ports[ev.Port]
	if spec.ToHost {
		return fab.HostEngine(spec.Peer)
	}
	return fab.SwitchEngine(spec.Peer)
}

// setLinkDown applies down state to one direction of the link whose
// transmit side is (Switch, Port).
func setLinkDown(fab *netsim.Fabric, ev *Event, side int, down bool) {
	if side == sideNamed {
		fab.SetLinkDown(ev.Switch, ev.Port, down)
		return
	}
	spec := fab.Topology().Switches[ev.Switch].Ports[ev.Port]
	if spec.ToHost {
		fab.SetHostDown(spec.Peer, down)
	} else {
		fab.SetLinkDown(spec.Peer, spec.PeerPort, down)
	}
}

// setLinkLoss applies a persistent loss rate to one direction.
func setLinkLoss(fab *netsim.Fabric, ev *Event, side int, rate float64) {
	if side == sideNamed {
		fab.SetLinkLossRate(ev.Switch, ev.Port, rate)
		return
	}
	spec := fab.Topology().Switches[ev.Switch].Ports[ev.Port]
	if spec.ToHost {
		fab.SetHostLossRate(spec.Peer, rate)
	} else {
		fab.SetLinkLossRate(spec.Peer, spec.PeerPort, rate)
	}
}

// applyStart fires at Event.At on the owning shard's engine; side selects
// which direction of a link event this timer applies.
func applyStart(a, b any, side int) {
	fab, ev := a.(*netsim.Fabric), b.(*Event)
	switch ev.Kind {
	case LinkDown:
		setLinkDown(fab, ev, side, true)
	case LinkUp:
		setLinkDown(fab, ev, side, false)
	case LinkDegrade:
		setLinkLoss(fab, ev, side, ev.Rate)
	case LossBurst:
		until := ev.At.Add(ev.Dur)
		if side == sideNamed {
			fab.SetLossBurst(ev.Switch, ev.Port, until, ev.Rate)
			return
		}
		spec := fab.Topology().Switches[ev.Switch].Ports[ev.Port]
		if spec.ToHost {
			fab.SetHostLossBurst(spec.Peer, until, ev.Rate)
		} else {
			fab.SetLossBurst(spec.Peer, spec.PeerPort, until, ev.Rate)
		}
	case SwitchReboot:
		fab.RebootSwitch(ev.Switch, ev.Drain == DrainDrop)
	case HostPause:
		fab.SetHostDown(ev.Host, true)
	}
}

// applyEnd fires at the event's restore time (see Event.end).
func applyEnd(a, b any, side int) {
	fab, ev := a.(*netsim.Fabric), b.(*Event)
	switch ev.Kind {
	case LinkDown:
		setLinkDown(fab, ev, side, false)
	case LinkDegrade:
		setLinkLoss(fab, ev, side, 0)
	case SwitchReboot:
		fab.RestoreSwitch(ev.Switch)
	case HostPause:
		fab.SetHostDown(ev.Host, false)
	}
}
