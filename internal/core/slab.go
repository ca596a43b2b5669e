package core

// Compact per-flow state. A 1024-host run at high load holds 10^4–10^6
// concurrent flows, so per-flow footprint is a first-order memory cost:
// the per-packet bookkeeping is flowtrack's, packed to 1 bit (sender
// sent-marks) and 2 bits (receiver packet states) per sequence number,
// and flow records recycle through per-host free lists so steady state
// allocates nothing per flow beyond what must outlive it (the completion
// record and the done-flow id). The budget is enforced by
// TestSteadyStateBytesPerFlow (DESIGN.md §13.1).

// newSendFlow takes a recycled record from the sender's free list, or
// makes one. The tracker keeps its array across recycles (Tx.Reset), so
// a host's flow churn settles into zero-allocation steady state once the
// largest flow shape has been seen.
func (s *sender) newSendFlow() *sendFlow {
	if n := len(s.freeFlows); n > 0 {
		f := s.freeFlows[n-1]
		s.freeFlows[n-1] = nil
		s.freeFlows = s.freeFlows[:n-1]
		return f
	}
	return &sendFlow{}
}

// recycleSendFlow cancels every timer that could still reference f —
// after this no live closure can observe the record — resets it, and
// returns it to the free list, whose append reuses capacity after warm-up.
func (s *sender) recycleSendFlow(f *sendFlow) {
	f.notifTimer.Cancel()
	f.finTimer.Cancel()
	f.burstTimer.Cancel()
	*f = sendFlow{Tx: f.Tx} // flowArrival's Reset starts the tracker over
	s.freeFlows = append(s.freeFlows, f)
}

// newRecvFlow takes a recycled record from the receiver's free list, or
// makes one: it allocates only while flow concurrency grows.
func (r *receiver) newRecvFlow() *recvFlow {
	if n := len(r.freeFlows); n > 0 {
		f := r.freeFlows[n-1]
		r.freeFlows[n-1] = nil
		r.freeFlows = r.freeFlows[:n-1]
		return f
	}
	return &recvFlow{}
}

// recycleRecvFlow cancels the short-flow recovery timer (the only
// closure that can outlive the flow), resets the record keeping its
// arrays, and returns it to the free list, whose append reuses capacity
// after warm-up.
func (r *receiver) recycleRecvFlow(f *recvFlow) {
	f.recoverTimer.Cancel()
	f.tokened.Reset()
	*f = recvFlow{Rx: f.Rx, tokened: f.tokened} // ensure's Reset starts the tracker over
	r.freeFlows = append(r.freeFlows, f)
}
