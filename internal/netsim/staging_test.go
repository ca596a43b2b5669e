package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dcpim/internal/sim"
)

// refStaging is the staging the logs replaced: one row per (source,
// destination) pair and epoch parity, appended to by the source and
// emptied by the destination, source by source. It is the specification
// TestStagingLogMatchesRows holds the logs to.
type refStaging struct {
	out [2][][]refRow // parity, source, destination
}

// refRow is what one source staged for one destination in one epoch, and
// the earliest arrival in it while q is non-empty.
type refRow struct {
	q     []stagedArrival
	first sim.Time
}

func newRefStaging(n int) *refStaging {
	r := &refStaging{}
	for p := range r.out {
		r.out[p] = make([][]refRow, n)
		for s := range r.out[p] {
			r.out[p][s] = make([]refRow, n)
		}
	}
	return r
}

func (r *refStaging) stage(parity, src, dst int, a stagedArrival) {
	row := &r.out[parity][src][dst]
	if len(row.q) == 0 || a.at < row.first {
		row.first = a.at
	}
	row.q = append(row.q, a)
}

// inboundAt is Fabric.InboundAt over the rows the epoch of parity left
// for dst.
func (r *refStaging) inboundAt(parity, dst int) (at sim.Time, ok bool) {
	for src := range r.out[1-parity] {
		if row := &r.out[1-parity][src][dst]; len(row.q) > 0 && (!ok || row.first < at) {
			at, ok = row.first, true
		}
	}
	return at, ok
}

// land is Fabric.Land over the rows: dst's row of every source, in source
// order, onto eng.
func (r *refStaging) land(parity, dst int, eng *sim.Engine) int {
	n := 0
	for src := range r.out[1-parity] {
		row := &r.out[1-parity][src][dst]
		for _, a := range row.q {
			eng.ScheduleArrival(a.at, a.key, a.fn, a.a, a.b, int(a.i))
		}
		n += len(row.q)
		row.q = row.q[:0]
	}
	return n
}

// landed records the ids of the arrivals a destination ran, in the order
// it ran them.
type landed struct{ ids []int }

func recordLanded(a, _ any, i int) {
	r := a.(*landed)
	r.ids = append(r.ids, i)
}

// TestStagingLogMatchesRows drives the staging logs and the per-pair rows
// they replaced through the same random epochs, on 2 to 8 shards and both
// parities, and requires each destination to run the same arrivals in the
// same order. In an epoch every shard lands as it starts and then stages,
// the shards interleaved at random as their goroutines would be, and now
// and then every shard lands again between epochs, as RunSynced does at a
// sync point. After each epoch InboundAt and the landed counts must agree
// with the rows, and each log's backing array must stay within twice the
// most its shard staged in one epoch: a log holds one epoch, for every
// destination together.
//
// Keys and times repeat on purpose. Among equal keys a destination's heap
// runs arrivals in an order that follows the order they were scheduled
// in, so landing a chain out of source order, or a record out of its
// chain, shows up as a different sequence; the fabric's keys never
// repeat, which is why its landing order is invisible elsewhere.
func TestStagingLogMatchesRows(t *testing.T) {
	const window = sim.Duration(100)
	for n := 2; n <= 8; n++ {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("%d shards, seed %d", n, seed)
			rng := rand.New(rand.NewSource(seed*10 + int64(n)))
			f := &Fabric{lookahead: window}
			ref := newRefStaging(n)
			refEng := make([]*sim.Engine, n)
			got, want := make([]*landed, n), make([]*landed, n)
			for i := 0; i < n; i++ {
				s := &shardState{id: i, fab: f, eng: sim.NewEngine(1)}
				s.newStaging(n)
				f.shards = append(f.shards, s)
				refEng[i] = sim.NewEngine(1)
				got[i], want[i] = &landed{}, &landed{}
			}
			refStaged := make([]int, n)
			most := make([]int, n) // per source: the most it staged in one epoch
			id := 0
			for epoch := 1; epoch <= 60; epoch++ {
				f.barrier = sim.Time(epoch) * sim.Time(window)
				p := f.parity
				// Each shard's actions: land, then stage m arrivals.
				var order []int
				todo := make([]int, n)
				for s := range todo {
					todo[s] = 1 + rng.Intn(12)
					for range todo[s] {
						order = append(order, s)
					}
				}
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				started := make([]bool, n)
				staged := make([]int, n)
				for _, s := range order {
					if !started[s] {
						started[s] = true
						f.Land(s)
						refStaged[s] += ref.land(p, s, refEng[s])
						continue
					}
					if rng.Intn(4) == 0 {
						continue // some epochs stage little
					}
					dst := (s + 1 + rng.Intn(n-1)) % n
					id++
					at := f.barrier + 1 + sim.Time(rng.Intn(3))
					key := uint64(rng.Intn(3))
					f.shards[s].stage(f.shards[dst], at, key, recordLanded, got[dst], nil, id)
					ref.stage(p, s, dst, stagedArrival{at: at, key: key, fn: recordLanded, a: want[dst], i: int32(id)})
					staged[s]++
				}
				for s := range f.shards {
					f.shards[s].eng.Run(f.barrier)
					refEng[s].Run(f.barrier)
				}
				f.parity = 1 - p
				if rng.Intn(5) == 0 {
					for d := range f.shards {
						f.Land(d)
						refStaged[d] += ref.land(f.parity, d, refEng[d])
					}
				}
				for d := range f.shards {
					gotAt, gotOK := f.InboundAt(d)
					wantAt, wantOK := ref.inboundAt(f.parity, d)
					if gotAt != wantAt || gotOK != wantOK {
						t.Fatalf("%s, epoch %d: InboundAt(%d) = %v, %v; the rows give %v, %v", name, epoch, d, gotAt, gotOK, wantAt, wantOK)
					}
					if f.shards[d].staged != uint64(refStaged[d]) {
						t.Fatalf("%s, epoch %d: shard %d landed %d arrivals, the rows %d", name, epoch, d, f.shards[d].staged, refStaged[d])
					}
				}
				for s, src := range f.shards {
					most[s] = max(most[s], staged[s])
					for q := range src.logs {
						if c := cap(src.logs[q].arrivals); c > 2*most[s] {
							t.Fatalf("%s, epoch %d: shard %d's log %d holds room for %d arrivals; the most it staged in an epoch is %d",
								name, epoch, s, q, c, most[s])
						}
					}
				}
			}
			for d := range f.shards {
				f.Land(d)
				ref.land(f.parity, d, refEng[d])
				f.shards[d].eng.RunAll()
				refEng[d].RunAll()
				if g, w := got[d].ids, want[d].ids; !slices.Equal(g, w) {
					k := 0
					for k < min(len(g), len(w)) && g[k] == w[k] {
						k++
					}
					t.Fatalf("%s: shard %d ran %d arrivals, the rows %d; from position %d it ran %v…, the rows %v…",
						name, d, len(g), len(w), k, g[k:min(k+8, len(g))], w[k:min(k+8, len(w))])
				}
			}
			if unlanded(f) != 0 {
				t.Fatalf("%s: %d arrivals left in staging after every shard landed", name, unlanded(f))
			}
		}
	}
}
