// Package experiments reproduces every table and figure of the dcPIM
// paper's evaluation (§4): it wires workloads, topologies and protocols
// into the fabric simulator, runs them, and prints the same rows and
// series the paper plots. cmd/experiments exposes each one on the command
// line. The paper's claims are one table, targets (targets.go), and every
// report ends with its claims beside the cells it measured.
package experiments

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"strings"
	"time"

	"dcpim/internal/checkpoint"
	"dcpim/internal/core"
	"dcpim/internal/faults"
	"dcpim/internal/netsim"
	"dcpim/internal/packet"
	"dcpim/internal/protocols/fastpass"
	"dcpim/internal/protocols/homa"
	"dcpim/internal/protocols/hpcc"
	"dcpim/internal/protocols/ndp"
	"dcpim/internal/protocols/tcp"
	"dcpim/internal/sim"
	"dcpim/internal/stats"
	"dcpim/internal/topo"
	"dcpim/internal/workload"
)

// Protocol names usable in RunSpec.
const (
	DCPIM      = "dcpim"
	HomaAeolus = "homa-aeolus"
	Homa       = "homa"
	NDP        = "ndp"
	HPCC       = "hpcc"
	PHost      = "phost"
	DCTCP      = "dctcp"
	Cubic      = "cubic"
	Fastpass   = "fastpass"
)

// Comparators is the paper's simulation protocol set (Figures 3–5).
var Comparators = []string{DCPIM, HomaAeolus, NDP, HPCC}

// transport is one protocol a RunSpec may name: the fabric it expects and
// how it attaches. attach installs it on every host, recording into col;
// the transport's Attach registers its instruments there (none unless col
// is instrumented) under the row's name as the prefix — dcPIM's under
// "core". Only dcPIM reads cfg; a nil cfg selects its defaults.
type transport struct {
	name   string
	fabric netsim.Config
	attach func(fab *netsim.Fabric, col *stats.Collector, cfg *core.Config)
}

// transports is every protocol Run accepts, in the order an unknown
// name's panic lists them.
var transports = []transport{
	{DCPIM, netsim.Config{Spray: true}, func(fab *netsim.Fabric, col *stats.Collector, cfg *core.Config) {
		c := core.DefaultConfig()
		if cfg != nil {
			c = *cfg
		}
		core.Attach(fab, c, col)
	}},
	{HomaAeolus, homa.AeolusConfig().FabricConfig(), func(fab *netsim.Fabric, col *stats.Collector, _ *core.Config) {
		homa.Attach(fab, homa.AeolusConfig(), col)
	}},
	{Homa, homa.DefaultConfig().FabricConfig(), func(fab *netsim.Fabric, col *stats.Collector, _ *core.Config) {
		homa.Attach(fab, homa.DefaultConfig(), col)
	}},
	{NDP, ndp.FabricConfig(), func(fab *netsim.Fabric, col *stats.Collector, _ *core.Config) {
		ndp.Attach(fab, col)
	}},
	{HPCC, hpcc.FabricConfig(), func(fab *netsim.Fabric, col *stats.Collector, _ *core.Config) {
		hpcc.Attach(fab, col)
	}},
	{PHost, homa.PHostConfig().FabricConfig(), func(fab *netsim.Fabric, col *stats.Collector, _ *core.Config) {
		homa.Attach(fab, homa.PHostConfig(), col)
	}},
	{DCTCP, tcp.DCTCPConfig().FabricConfig(), func(fab *netsim.Fabric, col *stats.Collector, _ *core.Config) {
		tcp.Attach(fab, tcp.DCTCPConfig(), col)
	}},
	{Cubic, tcp.CubicConfig().FabricConfig(), func(fab *netsim.Fabric, col *stats.Collector, _ *core.Config) {
		tcp.Attach(fab, tcp.CubicConfig(), col)
	}},
	{Fastpass, fastpass.FabricConfig(), func(fab *netsim.Fabric, col *stats.Collector, _ *core.Config) {
		fastpass.Attach(fab, col)
	}},
}

// transportNamed resolves a RunSpec's protocol; an unknown name panics
// with the known ones.
func transportNamed(name string) transport {
	names := make([]string, len(transports))
	for i, t := range transports {
		if t.name == name {
			return t
		}
		names[i] = t.name
	}
	panic(fmt.Sprintf("experiments: unknown protocol %q (known: %s)", name, strings.Join(names, ", ")))
}

// Options tunes experiment execution.
type Options struct {
	// Seed for all randomness.
	Seed int64
	// Scale multiplies simulation horizons; < 1 gives quick smoke runs,
	// 1 the default fidelity.
	Scale float64
	// Hosts overrides topology size where the experiment allows scaling
	// (0 = the paper's size).
	Hosts int
	// Workers bounds how many simulations sweep experiments run
	// concurrently through RunMany (0 = GOMAXPROCS, 1 = serial). Results
	// and printed output are identical at any setting.
	Workers int
	// Shards splits every fabric into this many barrier-synchronized
	// shards along topology boundary links: 0 = auto (the topology's own
	// count, topo.AutoShards — one shard per 64 hosts, at most one per pod
	// or rack, serial below 128 hosts), 1 = serial, n > 1 as given.
	// Collector output, counters, digests and sampled metrics are
	// byte-identical at any value; only wall-clock time changes. See
	// DESIGN.md §11.
	Shards int
	// MetricsDir, when non-empty, enables the telemetry layer on every
	// figure's runs: each cell writes its sampled CSV series and JSON
	// report under this directory, named by the cell's label.
	MetricsDir string
	// CheckpointEvery, when positive, snapshots every figure's runs at
	// this simulated-time cadence (see internal/checkpoint). Snapshots are
	// pure reads taken at barrier sync points, so the simulated packet
	// stream — and every digest — is unchanged.
	CheckpointEvery sim.Duration
	// CheckpointDir, when non-empty, receives the snapshot files
	// (<label>.ck<index>.dcpimck) of checkpointed runs.
	CheckpointDir string
	// Matchers restricts the `matchers` experiment to a comma-separated
	// list of matcher names (empty = every row of internal/matching's
	// table; see DESIGN.md §15). A list that names no matcher, such as
	// ",", is an error.
	Matchers string
}

func (o Options) scaled(d sim.Duration) sim.Duration {
	if o.Scale <= 0 {
		return d
	}
	return sim.Duration(float64(d) * o.Scale)
}

// EffectiveWorkers resolves the worker-pool size for RunMany — what
// bounds sweep concurrency, which run reports surface instead of the raw
// -parallel flag. With an explicit Shards > 1 each concurrent simulation
// runs that many engine goroutines, so the pool is the floor of
// GOMAXPROCS over the shard count: workers × shards never exceeds
// GOMAXPROCS. The floor is clamped to one worker so sweeps always make
// progress even when a single simulation is wider than the machine. Auto
// (Shards 0) leaves the pool alone: its count depends on each spec's
// topology, and a sweep of auto-sharded runs measured level with serial
// at 432 and 1024 hosts and at most a few percent slower at 144, where
// halving the pool was slower still (DESIGN.md §11.5).
func (o Options) EffectiveWorkers() int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if o.Shards > 1 {
		w /= o.Shards
		if w < 1 {
			w = 1
		}
	}
	return w
}

// metrics returns a MetricsSpec labeled for one run, or nil when the
// telemetry layer is disabled (no MetricsDir).
func (o Options) metrics(label string) *MetricsSpec {
	if o.MetricsDir == "" {
		return nil
	}
	return &MetricsSpec{Dir: o.MetricsDir, Label: label}
}

// checkpoint returns a CheckpointSpec labeled for one run, or nil when
// periodic snapshots are disabled (no CheckpointEvery).
func (o Options) checkpoint(label string) *CheckpointSpec {
	if o.CheckpointEvery <= 0 {
		return nil
	}
	return &CheckpointSpec{Every: o.CheckpointEvery, Dir: o.CheckpointDir, Label: label, Journal: true}
}

// RunSpec describes one simulation run.
type RunSpec struct {
	Protocol string
	Topo     *topo.Topology
	Trace    *workload.Trace
	Horizon  sim.Duration // total run time (trace horizon + drain)
	Seed     int64
	Shards   int          // fabric shard count: 0 = auto (topo.AutoShards), 1 = serial
	BinWidth sim.Duration // sampling interval: utilization bins and -metrics rows (0 = 10 µs)
	DcPIM    *core.Config // optional dcPIM parameter override

	// Faults, when set, is installed on the fabric before the run: the
	// resilience experiment scripts link failures, loss bursts, switch
	// reboots and host pauses against every protocol identically.
	Faults *faults.Schedule
	// Checkpoint, when set, snapshots engine state and digests every
	// Checkpoint.Every of simulated time (RunCheckpointed returns the
	// snapshots). Capture is pure reads at barrier sync points, so
	// results are byte-identical with and without it.
	Checkpoint *CheckpointSpec
	// Digest, when set, folds every delivered packet (time, host, and
	// header fields) into RunResult.Digest. Determinism tests compare
	// digests across serial and parallel execution and against golden
	// values.
	Digest bool
	// Metrics, when set, enables the telemetry layer: the fabric and the
	// protocol register their instruments on the run's collector, which
	// samples them every BinWidth beside the delivered bytes, and the
	// series and end-of-run values are serialized into
	// RunResult.MetricsCSV / MetricsJSON (and to Metrics.Dir when set).
	// Sampling is pure reads at sync points, so the simulated packet
	// stream — and Digest — is unchanged.
	Metrics *MetricsSpec
}

// RunResult carries everything the figures need from one run.
type RunResult struct {
	Protocol string
	Records  []stats.FlowRecord
	Col      *stats.Collector
	Counters netsim.Counters
	Offered  int64
	Started  int64
	Hosts    int
	HostRate float64
	Trace    *workload.Trace
	End      sim.Time // simulation end (horizon)
	Digest   uint64   // FNV-1a over the delivered-packet stream (RunSpec.Digest)
	Events   uint64   // engine events executed, summed over shards

	// ShardStats profiles the barrier loop: per-shard event counts,
	// staged boundary arrivals, and epochs dispatched versus idle-skipped.
	ShardStats []netsim.ShardStats

	// Where the run's wall time went, for the one caller that hands a run
	// a clock (RunScale; zero otherwise) and so different on every run:
	// Wall from the first line of set-up to the folded result, Wire the
	// set-up alone (partition, fabric, protocols, trace), and Serial the
	// part of Wall spent outside sim.Group's Each and RunEpoch — on one
	// goroutine, whatever the shard count. Serial over Wall is what
	// Amdahl's law charges a sharded run. Overhead is Σ over epochs of
	// the epoch's wall time minus its busiest shard's (ShardStats.Busy
	// holds each shard's): what the barrier itself cost.
	Wall, Wire, Serial, Overhead time.Duration

	// MetricsCSV / MetricsJSON hold the sampled time series and the
	// end-of-run report when RunSpec.Metrics is set (nil otherwise).
	MetricsCSV  []byte
	MetricsJSON []byte
}

// Utilization returns goodput over the run relative to offered load.
func (r RunResult) Utilization() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Col.DeliveredBytes()) / float64(r.Offered)
}

// CappedUtilization returns delivered bytes relative to the bytes that
// were physically deliverable by the end of the run: each flow's offered
// bytes are capped at line rate times its time in the system. This makes
// sustainability checks robust to heavy-tailed workloads, where a few
// gigantic flows hold a large share of raw offered bytes that no protocol
// could have delivered within the horizon.
func (r RunResult) CappedUtilization() float64 {
	var capped int64
	end := r.End
	for _, fl := range r.Trace.Flows {
		max := int64(r.HostRate / 8 * end.Sub(fl.Arrival).Seconds())
		if max > fl.Size {
			max = fl.Size
		}
		if max > 0 {
			capped += max
		}
	}
	if capped == 0 {
		return 0
	}
	return float64(r.Col.DeliveredBytes()) / float64(capped)
}

// Completion returns the fraction of injected flows that completed.
func (r RunResult) Completion() float64 {
	if r.Started == 0 {
		return 0
	}
	return float64(r.Col.Completed()) / float64(r.Started)
}

// Run executes one simulation to its horizon and collects results. The
// protocol is any name in the transports table.
//
// More than one shard (Spec.Shards > 1, or 0 on a topology whose auto
// count is) runs the fabric as barrier-synchronized shards, one engine
// goroutine each; every engine carries the run seed, every device a
// seed-derived RNG stream, so the result — records, counters, digest,
// metrics — is the same at every shard count, and len(ShardStats) says
// which one ran. Panics when the topology cannot be cut into that many
// shards (topo.MaxShards gives the limit).
//
// When spec.Checkpoint is set the run advances in cadence-sized windows
// and snapshots at each boundary (RunCheckpointed returns the
// snapshots); results are byte-identical either way.
func Run(spec RunSpec) RunResult {
	res, _ := run(spec, nil, false)
	return res
}

// runClocked is Run, metered on clock: a WallTimer the caller started as
// it called, on which the result's Wall, Wire and Serial are read.
func runClocked(spec RunSpec, clock func() time.Duration) RunResult {
	res, _ := run(spec, clock, false)
	return res
}

// run is the one run driver behind Run, RunCheckpointed and runClocked:
// it wires spec, advances to the horizon and folds the result, metered
// on clock when that is not nil. With spec.Checkpoint set it stops at
// each multiple of Checkpoint.Every on the way, captures a snapshot
// there, and writes it to Checkpoint.Dir when that is set; it returns
// the snapshots only when keep is set, so a long run does not hold them
// all until it ends.
func run(spec RunSpec, clock func() time.Duration, keep bool) (RunResult, []*checkpoint.Snapshot) {
	ck := spec.Checkpoint
	if ck != nil && ck.Every <= 0 {
		panic("experiments: spec.Checkpoint needs Every > 0")
	}
	rs := newRunState(spec, clock)
	defer rs.close()
	horizon := sim.Time(spec.Horizon)
	var snaps []*checkpoint.Snapshot
	if ck != nil {
		idx := 0
		for t := sim.Time(0).Add(ck.Every); t <= horizon; t = t.Add(ck.Every) {
			rs.runTo(t)
			snap := rs.capture(t, idx)
			idx++
			writeSnapshot(ck, snap)
			if keep {
				snaps = append(snaps, snap)
			}
		}
	}
	rs.runTo(horizon)
	return rs.result(), snaps
}

// runState is one simulation mid-flight: the wired fabric, engines and
// collector, paused at a barrier sync point. run drives it
// to the horizon, in one call or, when checkpointing, window by window
// with a snapshot between windows. Window placement never changes
// execution order — engines run events strictly in (time, seq) order and
// windows only bound how far — so both produce byte-identical results.
type runState struct {
	spec        RunSpec
	engines     []*sim.Engine
	grp         *sim.Group
	col         *stats.Collector
	fab         *netsim.Fabric
	interval    sim.Duration // the collector's sampling cadence (BinWidth)
	hostDigests []uint64
	clock       func() time.Duration // the caller's wall clock, nil when the run is not metered
	wire        time.Duration        // clock's reading when set-up ended
}

// shards resolves the spec's shard count — the one place the zero value
// is read as auto. Everything that needs the count (wiring, snapshot
// metadata via len(engines), reports via len(ShardStats)) comes through
// here, and it is a function of the spec alone, never of the machine.
func (spec RunSpec) shards() int {
	if spec.Shards == 0 {
		return topo.AutoShards(spec.Topo)
	}
	return spec.Shards
}

// newRunState wires one simulation and injects its trace; the returned
// state sits at t=0 ready for runTo. Call close when done. A non-nil clock
// (runClocked) meters the run; nothing reads the wall clock otherwise.
func newRunState(spec RunSpec, clock func() time.Duration) *runState {
	n := spec.shards()
	part, err := topo.MakePartition(spec.Topo, n)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	engines := make([]*sim.Engine, n)
	for i := range engines {
		engines[i] = sim.NewEngine(spec.Seed)
	}
	grp := sim.NewGroup(engines)
	if clock != nil {
		grp.SetClock(clock)
	}
	col := stats.NewCollector()

	tr := transportNamed(spec.Protocol)
	fab := netsim.NewSharded(grp, spec.Topo, tr.fabric, part)

	if spec.Metrics != nil {
		col.EnableInstruments()
		fab.RegisterMetrics(col)
	}
	tr.attach(fab, col, spec.DcPIM)

	// The digest folds each host's delivered-packet stream separately —
	// deliveries for one host all run on its shard's engine, so the
	// per-host fold is race-free and ordered by simulation time — then
	// combines the host digests in host-id order at the end. Both levels
	// are independent of shard count. A checkpointed run folds them too:
	// every snapshot carries them, Digest or not.
	var hostDigests []uint64
	if spec.Digest || spec.Checkpoint != nil {
		hostDigests = make([]uint64, spec.Topo.NumHosts)
		for i := range hostDigests {
			hostDigests[i] = fnvOffset
		}
		fab.AddObserver(netsim.ObserverFuncs{
			Delivered: func(host int, p *packet.Packet) {
				d := hostDigests[host]
				d = fnvMix(d, uint64(fab.HostEngine(host).Now()))
				d = fnvMix(d, uint64(host))
				d = fnvMix(d, uint64(p.Kind)<<32|uint64(uint32(p.Size)))
				d = fnvMix(d, uint64(uint32(p.Src))<<32|uint64(uint32(p.Dst)))
				d = fnvMix(d, p.Flow)
				d = fnvMix(d, uint64(p.Seq))
				hostDigests[host] = d
			},
		})
	}
	if spec.Faults != nil {
		faults.Install(fab, spec.Faults)
	}
	if spec.Checkpoint != nil && spec.Checkpoint.Journal {
		for _, eng := range engines {
			eng.StartJournal()
		}
	}
	fab.Start()
	fab.Inject(spec.Trace)
	// The series fixes its column set as it starts, after every
	// instrument is registered (fabric + protocol), and takes its first
	// sample at t=0 before any event; the rest come from barrier sync
	// points (never engine ticks), so they match at every shard count.
	interval := spec.BinWidth
	if interval == 0 {
		interval = 10 * sim.Microsecond
	}
	col.StartSeries(interval, spec.Horizon)
	rs := &runState{
		spec: spec, engines: engines, grp: grp, col: col,
		fab: fab, interval: interval,
		hostDigests: hostDigests, clock: clock,
	}
	if clock != nil {
		rs.wire = clock()
	}
	return rs
}

// runTo advances the simulation to t (a no-op when already there).
// Repeated calls with increasing targets execute the same event stream
// as a single call to the final target.
func (rs *runState) runTo(t sim.Time) {
	rs.fab.RunSynced(t, rs.interval, rs.col.Sample)
}

func (rs *runState) close() { rs.grp.Close() }

// result assembles the RunResult; call after runTo(horizon).
func (rs *runState) result() RunResult {
	spec := rs.spec
	var digest uint64
	if spec.Digest {
		digest = fnvOffset
		for _, d := range rs.hostDigests {
			digest = fnvMix(digest, d)
		}
	}
	var events uint64
	for _, eng := range rs.engines {
		events += eng.Events()
	}
	res := RunResult{
		Digest:     digest,
		Events:     events,
		ShardStats: rs.fab.ShardStats(),
		Protocol:   spec.Protocol,
		Records:    rs.col.Records(),
		Col:        rs.col,
		Counters:   rs.fab.Counters,
		Offered:    spec.Trace.OfferedBytes,
		Started:    int64(len(spec.Trace.Flows)),
		Hosts:      spec.Topo.NumHosts,
		HostRate:   spec.Topo.HostRate,
		Trace:      spec.Trace,
		End:        sim.Time(spec.Horizon),
	}
	if spec.Metrics != nil {
		res.MetricsCSV, res.MetricsJSON = emitMetrics(spec, rs.col, rs.interval)
	}
	if rs.clock != nil {
		res.Wall, res.Wire = rs.clock(), rs.wire
		res.Serial = res.Wall - rs.grp.SharedWall()
		res.Overhead = rs.grp.EpochOverhead()
	}
	return res
}

// FNV-1a 64 folded over 8-byte words: cheap enough to run on every
// delivered packet and stable across Go versions (unlike maphash).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvMix folds the eight bytes of w into h, low byte first. The words of
// a delivery are mostly small numbers, and a zero byte's FNV-1a step is
// h *= prime alone, so only the bytes up to w's highest set one go through
// the loop and the zero bytes above them are one multiplication by the
// matching power of the prime — the same value as eight steps.
func fnvMix(h, w uint64) uint64 {
	n := (bits.Len64(w) + 7) / 8
	for i := 0; i < n; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	return h * fnvPrimePow[8-n]
}

// fnvPrimePow[k] is fnvPrime to the k-th power (mod 2^64).
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string // e.g. "fig3a"
	Title string
	Run   func(o Options, w io.Writer) error
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"theorem1", "Theorem 1: bounded-round matching quality vs. analytical bound", RunTheorem1},
		{"fig3a", "Figure 3(a): maximum sustainable load (IMC10, leaf-spine)", RunFig3a},
		{"fig3b", "Figure 3(b): mean slowdown across flows at load 0.6", RunFig3b},
		{"fig3cde", "Figure 3(c–e): slowdown by flow size per workload at load 0.6", RunFig3cde},
		{"fig4a", "Figure 4(a): bursty microbenchmark utilization timeline", RunFig4a},
		{"fig4b", "Figure 4(b): worst case — all flows of size BDP+1", RunFig4b},
		{"fig4c", "Figure 4(c): dense 144×143 traffic matrix utilization", RunFig4c},
		{"fig5ab", "Figure 5(a,b): 2:1 oversubscribed leaf-spine at load 0.5", RunFig5ab},
		{"fig5cd", "Figure 5(c,d): 1024-host FatTree at load 0.6", RunFig5cd},
		{"fig6", "Figure 6: sensitivity to r, k and β at load 0.54", RunFig6},
		{"fig7", "Figure 7: 32-host 10G testbed — dcPIM vs DCTCP vs Cubic", RunFig7},
		{"fastpass", "§5 comparison: dcPIM vs Fastpass (centralized arbiter) short-flow latency", RunFastpass},
		{"ablation", "dcPIM design ablations: FCT round on/off, token window sizing", RunAblation},
		{"faults", "Fault resilience: FCT and completion vs fault intensity", RunFaults},
		{"scale", "Hyperscale campaign: hosts × load × shards", RunScale},
		{"matchers", "Matcher lab: registry-wide matcher-vs-matcher sweep (rounds, control bytes, size vs M*)", RunMatchers},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
