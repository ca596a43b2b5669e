package netsim

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dcpim/internal/packet"
	"dcpim/internal/sim"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// arrivalLog records the flows handed to one host and when.
type arrivalLog struct {
	host *Host
	ids  []uint64
	at   []sim.Time
}

func (l *arrivalLog) Start(h *Host) { l.host = h }
func (l *arrivalLog) OnFlowArrival(f workload.Flow) {
	l.ids = append(l.ids, f.ID)
	l.at = append(l.at, l.host.Engine().Now())
}
func (l *arrivalLog) OnPacket(*packet.Packet) {}

// injectTrace makes n flows between the small leaf-spine's hosts whose
// arrivals collide on a few dozen instants: sorted by arrival, or in the
// order they were drawn.
func injectTrace(n int, sorted bool) *workload.Trace {
	r := rand.New(rand.NewSource(int64(n)))
	flows := make([]workload.Flow, n)
	for i := range flows {
		src := r.Intn(8)
		flows[i] = workload.Flow{
			ID: uint64(i + 1), Src: src, Dst: (src + 1 + r.Intn(7)) % 8, Size: 1000,
			Arrival: sim.Time(r.Intn(40)) * sim.Time(sim.Microsecond),
		}
	}
	if sorted {
		slices.SortStableFunc(flows, func(x, y workload.Flow) int { return cmp.Compare(x.Arrival, y.Arrival) })
	}
	return &workload.Trace{Flows: flows}
}

// TestInjectNoPerFlowEvents: Inject makes no event object per flow — what
// it allocates is per shard, however long the trace — and every flow
// keeps the key a schedule in trace order gives it: on each shard's
// engine, the flows its hosts send hold (Arrival, consecutive seqs in
// trace order), for a trace sorted by arrival and for a hand-built
// unsorted one, serially and on four shards. Each host then receives its
// flows at their arrival, in that key order.
func TestInjectNoPerFlowEvents(t *testing.T) {
	tp := topo.SmallLeafSpine().Build()
	for _, shards := range []int{1, 4} {
		for _, sorted := range []bool{true, false} {
			for _, n := range []int{400, 4000} {
				tr := injectTrace(n, sorted)
				if !sorted && slices.IsSortedFunc(tr.Flows, func(x, y workload.Flow) int { return cmp.Compare(x.Arrival, y.Arrival) }) {
					t.Fatal("the unsorted trace came out sorted")
				}
				part, err := topo.MakePartition(tp, shards)
				if err != nil {
					t.Fatal(err)
				}
				engines := make([]*sim.Engine, shards)
				for i := range engines {
					engines[i] = sim.NewEngine(1)
				}
				grp := sim.NewGroup(engines)
				f := NewSharded(grp, tp, Config{Spray: true}, part)
				logs := make([]*arrivalLog, tp.NumHosts)
				for h := range logs {
					logs[h] = &arrivalLog{}
					f.AttachProtocol(h, logs[h])
				}
				f.Start()

				// The keys a schedule in trace order would give, per engine.
				want := make([][]sim.EventRecord, shards)
				next := make([]uint64, shards)
				for s, eng := range engines {
					next[s] = eng.CaptureState().Seq
				}
				for i := range tr.Flows {
					s := f.ShardOfHost(tr.Flows[i].Src)
					want[s] = append(want[s], sim.EventRecord{At: tr.Flows[i].Arrival, Seq: next[s]})
					next[s]++
				}

				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				f.Inject(tr)
				runtime.ReadMemStats(&after)
				if objs := after.Mallocs - before.Mallocs; objs > uint64(8*shards+8) {
					t.Errorf("%d shard(s), %d flows: Inject allocated %d objects, want a handful per shard", shards, n, objs)
				}

				for s, eng := range engines {
					st := eng.CaptureState()
					slices.SortFunc(want[s], func(x, y sim.EventRecord) int {
						return cmp.Or(cmp.Compare(x.At, y.At), cmp.Compare(x.Seq, y.Seq))
					})
					if !slices.Equal(st.Pending, want[s]) {
						t.Fatalf("%d shard(s), sorted=%v, %d flows: shard %d holds keys %v…, want %v…",
							shards, sorted, n, s, st.Pending[:min(4, len(st.Pending))], want[s][:min(4, len(want[s]))])
					}
					if st.Seq != next[s] {
						t.Errorf("%d shard(s): shard %d's next seq is %d, want %d", shards, s, st.Seq, next[s])
					}
				}

				f.Run(sim.Time(sim.Millisecond))
				grp.Close()
				byHost := make([][]int, tp.NumHosts)
				for i := range tr.Flows {
					byHost[tr.Flows[i].Src] = append(byHost[tr.Flows[i].Src], i)
				}
				for h, idx := range byHost {
					slices.SortStableFunc(idx, func(x, y int) int { return cmp.Compare(tr.Flows[x].Arrival, tr.Flows[y].Arrival) })
					l := logs[h]
					if len(l.ids) != len(idx) {
						t.Fatalf("host %d received %d of its %d flows", h, len(l.ids), len(idx))
					}
					for k, i := range idx {
						if l.ids[k] != tr.Flows[i].ID || l.at[k] != tr.Flows[i].Arrival {
							t.Fatalf("host %d: arrival %d was flow %d at %v, want flow %d at %v",
								h, k, l.ids[k], l.at[k], tr.Flows[i].ID, tr.Flows[i].Arrival)
						}
					}
				}
			}
		}
	}
}
