// Package core implements the dcPIM transport protocol (the paper's
// contribution): a proactive, receiver-driven datacenter transport whose
// hosts run PIM-style matching phases pipelined with token-clocked data
// transmission phases.
//
// Protocol summary (paper §3):
//
//   - Time is divided into fixed-length epochs of (2r+1)·β·cRTT/2. During
//     epoch e, hosts exchange RTS/Grant/Accept control packets to compute
//     the matching used by the data phase of epoch e+1 (pipelining, §3.3),
//     with the accept stage of round j overlapped with the request stage
//     of round j+1.
//   - Each host has k channels (§3.4); matching allocates channels, so a
//     receiver may admit several senders per phase (and vice versa), each
//     at 1/k of the link rate.
//   - Matched receivers admit data with per-packet tokens inside a sliding
//     token window (§3.2); token clocking degrades gracefully to
//     one-token-per-received-packet under congestion.
//   - Flows no larger than the short-flow threshold (1 BDP) bypass
//     matching entirely and are transmitted immediately at the
//     second-highest priority; lost short-flow packets are recovered
//     through the matching path (§3.2).
//   - All control packets travel at the highest priority; notification and
//     finish packets are retransmitted on an RTT timer (§3.5).
package core

import (
	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
)

// Config holds dcPIM's protocol parameters (§3.6). The zero value is not
// usable; call DefaultConfig.
type Config struct {
	// Rounds is r, the total number of matching rounds per epoch
	// (including the FCT-optimizing first round if FCTRound is set).
	Rounds int
	// Channels is k, the per-host channel count. The paper recommends
	// k = r (§3.6).
	Channels int
	// Beta is the per-stage slack multiplier on cRTT/2 (§3.3).
	Beta float64
	// FCTRound enables the first-round smallest-remaining-flow
	// optimization (§3.5).
	FCTRound bool
	// WindowBytes is the per-flow token window. 0 selects 1 BDP.
	WindowBytes int64
	// MaxClockSkew desynchronizes host clocks: each host offsets its
	// stage ticker by a uniform random delay in [0, MaxClockSkew). The
	// paper's design tolerates loose synchronization (§3.5: PTP-level
	// sub-microsecond skew, with randomized multi-round matching
	// absorbing stragglers); tests use this to verify it.
	MaxClockSkew sim.Duration
}

// DefaultConfig returns the paper's default parameters: one FCT-optimizing
// round plus three utilization-optimizing rounds (r=4), k=4 channels,
// β=1.3, and 1-BDP short-flow threshold and token window.
func DefaultConfig() Config {
	return Config{Rounds: 4, Channels: 4, Beta: 1.3, FCTRound: true}
}

// timing captures the derived per-topology constants every dcPIM host
// shares.
type timing struct {
	stageLen sim.Duration // β·cRTT/2
	epochLen sim.Duration // (2r+1)·stageLen
	stages   int          // 2r+1
	mtuTime  sim.Duration // MTU serialization at access rate
	ctrlRTT  sim.Duration
	dataRTT  sim.Duration
	grace    sim.Duration // token grace past phase end: cRTT/2

	bdp          int64 // bytes; also the short-flow bypass threshold
	windowPkts   int   // token window in packets
	channelBytes int64 // bytes one channel carries in one data phase
}

func deriveTiming(cfg Config, t *topo.Topology) timing {
	ctrlRTT := t.CtrlRTT()
	stage := sim.Duration(float64(ctrlRTT) / 2 * cfg.Beta)
	stages := 2*cfg.Rounds + 1
	epoch := stage * sim.Duration(stages)
	bdp := t.BDP()
	window := cfg.WindowBytes
	if window == 0 {
		window = bdp
	}
	wpkts := packet.PacketsForBytes(window)
	if wpkts < 1 {
		wpkts = 1
	}
	chanBytes := int64(t.HostRate / 8 * epoch.Seconds() / float64(cfg.Channels))
	return timing{
		stageLen:     stage,
		epochLen:     epoch,
		stages:       stages,
		mtuTime:      sim.TransmissionTime(packet.MTU, t.HostRate),
		ctrlRTT:      ctrlRTT,
		dataRTT:      t.DataRTT(),
		grace:        ctrlRTT / 2,
		bdp:          bdp,
		windowPkts:   wpkts,
		channelBytes: chanBytes,
	}
}

// prioForRemaining maps a flow's remaining bytes to a data priority class:
// fewer remaining bytes → higher priority (§3.4's intelligent priority
// assignment), within the classes left after control and short-flow
// traffic.
func prioForRemaining(remaining, bdp int64) uint8 {
	switch {
	case remaining <= 4*bdp:
		return packet.PrioDataHigh
	case remaining <= 16*bdp:
		return packet.PrioDataHigh + 1
	case remaining <= 64*bdp:
		return packet.PrioDataHigh + 2
	case remaining <= 256*bdp:
		return packet.PrioDataHigh + 3
	default:
		return packet.PrioDataHigh + 4
	}
}
