package core

import (
	"fmt"

	"dcpim/internal/stats"
)

// instruments is the optional telemetry of a dcPIM run, shared by every
// host's Proto; each host adds through its own shard's collector. The
// zero value is fully inert — zero Counters record nothing — so
// uninstrumented runs carry no telemetry branches and allocate nothing
// for it per event.
type instruments struct {
	// tokensOutstanding is the fabric-wide token-window occupancy: tokens
	// issued whose data has not yet arrived. The paper's buffer-bound
	// argument (§3.4) says this stays near one BDP per matched channel.
	tokensOutstanding stats.Counter // gauge
	tokensIssued      stats.Counter
	tokensReverted    stats.Counter // tokens whose data never arrived (re-admitted)

	// unschedBytes / schedBytes split transmitted wire bytes into the
	// short-flow unscheduled bypass and token-admitted traffic; their
	// ratio is the unscheduled-bypass share.
	unschedBytes stats.Counter
	schedBytes   stats.Counter

	// matchedChannels is the fabric-wide matched channel count of the
	// data phase currently executing (gauge).
	matchedChannels stats.Counter

	// roundAccepts[r] counts channels accepted in matching round r —
	// the per-round matched-pair convergence Theorem 1 bounds.
	roundAccepts []stats.Counter
}

// roundAccept credits accepted channels to a matching round.
func (ins *instruments) roundAccept(col *stats.Collector, round, channels int) {
	if round >= 0 && round < len(ins.roundAccepts) {
		col.Add(ins.roundAccepts[round], int64(channels))
	}
}

// newInstruments registers a dcPIM run's instruments on the run's
// collector; one without instruments hands out zero Counters. The
// instruments aggregate across hosts: each shard adds in deterministic
// event order and the columns sum over shards, so sampled series are
// reproducible.
func newInstruments(col *stats.Collector, rounds int) instruments {
	ins := instruments{
		tokensOutstanding: col.Gauge("core/tokens_outstanding"),
		tokensIssued:      col.Counter("core/tokens_issued"),
		tokensReverted:    col.Counter("core/tokens_reverted"),
		unschedBytes:      col.Counter("core/unsched_bytes"),
		schedBytes:        col.Counter("core/sched_bytes"),
		matchedChannels:   col.Gauge("core/matched_channels"),
		roundAccepts:      make([]stats.Counter, rounds),
	}
	for r := range ins.roundAccepts {
		ins.roundAccepts[r] = col.Counter(fmt.Sprintf("core/match/round%d_accepted_channels", r))
	}
	return ins
}
