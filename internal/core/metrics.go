package core

import (
	"fmt"

	"dcpim/internal/metrics"
)

// instruments is the optional telemetry of a dcPIM run, shared by every
// host's Proto. The zero value is fully inert — nil instrument pointers
// no-op — so uninstrumented runs carry no telemetry branches and no
// allocations.
type instruments struct {
	// tokensOutstanding is the fabric-wide token-window occupancy: tokens
	// issued whose data has not yet arrived. The paper's buffer-bound
	// argument (§3.4) says this stays near one BDP per matched channel.
	tokensOutstanding *metrics.Gauge
	tokensIssued      *metrics.Counter
	tokensReverted    *metrics.Counter // tokens whose data never arrived (re-admitted)

	// unschedBytes / schedBytes split transmitted wire bytes into the
	// short-flow unscheduled bypass and token-admitted traffic; their
	// ratio is the unscheduled-bypass share.
	unschedBytes *metrics.Counter
	schedBytes   *metrics.Counter

	// matchedChannels is the fabric-wide matched channel count of the
	// data phase currently executing.
	matchedChannels *metrics.Gauge

	// roundAccepts[r] counts channels accepted in matching round r —
	// the per-round matched-pair convergence Theorem 1 bounds.
	roundAccepts []*metrics.Counter
}

// roundAccept credits accepted channels to a matching round.
func (ins *instruments) roundAccept(round, channels int) {
	if round >= 0 && round < len(ins.roundAccepts) {
		ins.roundAccepts[round].Add(int64(channels))
	}
}

// RegisterMetrics instruments every Proto of one run on reg (no-op when
// reg is nil). The instruments aggregate across hosts: counters and
// gauges are updated in deterministic event order, so sampled series are
// reproducible.
func RegisterMetrics(ps []*Proto, reg *metrics.Registry) {
	if reg == nil || len(ps) == 0 {
		return
	}
	ins := instruments{
		tokensOutstanding: reg.Gauge("core/tokens_outstanding"),
		tokensIssued:      reg.Counter("core/tokens_issued"),
		tokensReverted:    reg.Counter("core/tokens_reverted"),
		unschedBytes:      reg.Counter("core/unsched_bytes"),
		schedBytes:        reg.Counter("core/sched_bytes"),
		matchedChannels:   reg.Gauge("core/matched_channels"),
	}
	rounds := ps[0].sh.cfg.Rounds
	ins.roundAccepts = make([]*metrics.Counter, rounds)
	for r := 0; r < rounds; r++ {
		ins.roundAccepts[r] = reg.Counter(fmt.Sprintf("core/match/round%d_accepted_channels", r))
	}
	for _, p := range ps {
		p.sh.ins = ins
	}
}
