package workload

import (
	"math/rand"
	"sort"

	"dcpim/internal/sim"
)

// Flow is one transfer request: Size payload bytes from Src to Dst,
// arriving at the sender at Arrival.
type Flow struct {
	ID      uint64
	Src     int
	Dst     int
	Size    int64
	Arrival sim.Time
}

// Trace is a time-ordered set of flows plus bookkeeping for load math.
type Trace struct {
	Flows        []Flow
	OfferedBytes int64        // total payload bytes with arrival < Horizon
	Horizon      sim.Duration // generation horizon
}

// sortByArrival puts flows in arrival order with a stable ID tie-break so
// traces are deterministic.
func (t *Trace) sortByArrival() {
	sort.Slice(t.Flows, func(i, j int) bool {
		if t.Flows[i].Arrival != t.Flows[j].Arrival {
			return t.Flows[i].Arrival < t.Flows[j].Arrival
		}
		return t.Flows[i].ID < t.Flows[j].ID
	})
}

// AllToAllConfig generates the paper's default traffic pattern: every host
// is a sender with Poisson flow arrivals; each flow picks a uniformly
// random receiver other than the sender; sizes come from Dist. Load is the
// fraction of per-host access bandwidth offered.
type AllToAllConfig struct {
	Hosts    int
	HostRate float64 // bits per second
	Load     float64 // 0..1 fraction of access bandwidth
	Dist     SizeDist
	Horizon  sim.Duration
	Seed     int64
}

// Generate produces the flow trace.
func (c AllToAllConfig) Generate() *Trace {
	rng := rand.New(rand.NewSource(c.Seed))
	// Per-sender arrival rate: load·rate/8 bytes per second ÷ mean size.
	lambda := c.Load * c.HostRate / 8 / c.Dist.Mean() // flows per second
	tr := &Trace{Horizon: c.Horizon}
	var id uint64
	for src := 0; src < c.Hosts; src++ {
		t := sim.Time(0)
		for {
			// Exponential inter-arrival.
			gap := sim.FromSeconds(rng.ExpFloat64() / lambda)
			t = t.Add(gap)
			if sim.Duration(t) >= c.Horizon {
				break
			}
			dst := rng.Intn(c.Hosts - 1)
			if dst >= src {
				dst++
			}
			size := c.Dist.Sample(rng)
			id++
			tr.Flows = append(tr.Flows, Flow{ID: id, Src: src, Dst: dst, Size: size, Arrival: t})
			tr.OfferedBytes += size
		}
	}
	tr.sortByArrival()
	reID(tr)
	return tr
}

// IncastConfig adds periodic incast bursts (the paper's "bursty" pattern
// and the Fig. 4a microbenchmark): every Interval, Fanin senders each send
// one flow of BurstSize bytes to a single receiver.
type IncastConfig struct {
	Senders   []int // pool of incast senders
	Receivers []int // receivers; each burst targets one, round-robin
	Fanin     int   // senders per burst (e.g. 50)
	BurstSize int64 // bytes per incast flow (e.g. 128 KB)
	Interval  sim.Duration
	Start     sim.Time
	Bursts    int // number of bursts (0 = fill horizon)
	Horizon   sim.Duration
	Seed      int64
}

// Generate produces the incast flow trace.
func (c IncastConfig) Generate() *Trace {
	rng := rand.New(rand.NewSource(c.Seed))
	tr := &Trace{Horizon: c.Horizon}
	var id uint64
	t := c.Start
	for b := 0; ; b++ {
		if c.Bursts > 0 && b >= c.Bursts {
			break
		}
		if sim.Duration(t) >= c.Horizon {
			break
		}
		dst := c.Receivers[b%len(c.Receivers)]
		// Pick Fanin distinct senders, excluding the receiver.
		perm := rng.Perm(len(c.Senders))
		picked := 0
		for _, pi := range perm {
			src := c.Senders[pi]
			if src == dst {
				continue
			}
			id++
			tr.Flows = append(tr.Flows, Flow{ID: id, Src: src, Dst: dst, Size: c.BurstSize, Arrival: t})
			tr.OfferedBytes += c.BurstSize
			picked++
			if picked == c.Fanin {
				break
			}
		}
		t = t.Add(c.Interval)
	}
	tr.sortByArrival()
	reID(tr)
	return tr
}

// DenseTMConfig generates the paper's dense-traffic-matrix microbenchmark
// (Fig. 4c): at time zero every sender has one long flow to every receiver
// (n×(n−1) flows of FlowSize bytes).
type DenseTMConfig struct {
	Hosts    int
	FlowSize int64
	Horizon  sim.Duration
}

// Generate produces the dense matrix trace.
func (c DenseTMConfig) Generate() *Trace {
	tr := &Trace{Horizon: c.Horizon}
	var id uint64
	for src := 0; src < c.Hosts; src++ {
		for dst := 0; dst < c.Hosts; dst++ {
			if src == dst {
				continue
			}
			id++
			tr.Flows = append(tr.Flows, Flow{ID: id, Src: src, Dst: dst, Size: c.FlowSize, Arrival: 0})
			tr.OfferedBytes += c.FlowSize
		}
	}
	tr.sortByArrival()
	reID(tr)
	return tr
}

// Merge combines traces into one time-ordered trace with fresh unique IDs.
func Merge(traces ...*Trace) *Trace {
	out := &Trace{}
	for _, t := range traces {
		out.Flows = append(out.Flows, t.Flows...)
		out.OfferedBytes += t.OfferedBytes
		if t.Horizon > out.Horizon {
			out.Horizon = t.Horizon
		}
	}
	out.sortByArrival()
	reID(out)
	return out
}

// reID renumbers flows 1..n in arrival order so IDs are dense and unique
// regardless of how traces were combined.
func reID(t *Trace) {
	for i := range t.Flows {
		t.Flows[i].ID = uint64(i + 1)
	}
}

// SubsetAllToAll generates Poisson all-to-all traffic restricted to
// explicit sender and receiver sets (the Fig. 4a shuffle: 16 senders in one
// rack to 16 receivers in another).
type SubsetAllToAll struct {
	Senders   []int
	Receivers []int
	HostRate  float64
	Load      float64
	Dist      SizeDist
	Horizon   sim.Duration
	Seed      int64
}

// Generate produces the flow trace.
func (c SubsetAllToAll) Generate() *Trace {
	rng := rand.New(rand.NewSource(c.Seed))
	lambda := c.Load * c.HostRate / 8 / c.Dist.Mean()
	tr := &Trace{Horizon: c.Horizon}
	var id uint64
	for _, src := range c.Senders {
		t := sim.Time(0)
		for {
			t = t.Add(sim.FromSeconds(rng.ExpFloat64() / lambda))
			if sim.Duration(t) >= c.Horizon {
				break
			}
			dst := c.Receivers[rng.Intn(len(c.Receivers))]
			if dst == src {
				continue
			}
			size := c.Dist.Sample(rng)
			id++
			tr.Flows = append(tr.Flows, Flow{ID: id, Src: src, Dst: dst, Size: size, Arrival: t})
			tr.OfferedBytes += size
		}
	}
	tr.sortByArrival()
	reID(tr)
	return tr
}
