// Package workload generates the traffic the paper evaluates on: flows
// drawn from empirical datacenter flow-size distributions (IMC10, Web
// Search, Data Mining), arranged into traffic patterns (Poisson all-to-all,
// bursty incast, dense traffic matrices) at a configurable network load.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dcpim/internal/packet"
)

// SizeDist samples flow sizes in bytes.
type SizeDist interface {
	// Sample draws one flow size (≥ 1 byte).
	Sample(rng *rand.Rand) int64
	// Mean returns the expected flow size in bytes.
	Mean() float64
	// Name identifies the distribution in reports.
	Name() string
}

// CDFPoint is one knot of an empirical CDF: P[size ≤ Bytes] = Prob.
type CDFPoint struct {
	Bytes int64
	Prob  float64
}

// EmpiricalDist is a piecewise log-linear empirical flow-size distribution,
// the standard way datacenter transport papers encode production traces.
type EmpiricalDist struct {
	name   string
	points []CDFPoint
	mean   float64
}

// NewEmpirical builds a distribution from CDF knots. Knots must be strictly
// increasing in both size and probability, with the last probability 1.
func NewEmpirical(name string, points []CDFPoint) (*EmpiricalDist, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("workload %s: need ≥2 CDF points", name)
	}
	for i, p := range points {
		// The negated form rejects NaN probabilities, which pass every
		// direct comparison.
		if p.Bytes < 1 || !(p.Prob >= 0 && p.Prob <= 1) {
			return nil, fmt.Errorf("workload %s: bad point %+v", name, p)
		}
		if i > 0 && (p.Bytes <= points[i-1].Bytes || p.Prob <= points[i-1].Prob) {
			return nil, fmt.Errorf("workload %s: non-increasing CDF at %d", name, i)
		}
	}
	if points[len(points)-1].Prob != 1 {
		return nil, fmt.Errorf("workload %s: CDF must end at probability 1", name)
	}
	d := &EmpiricalDist{name: name, points: points}
	d.mean = d.computeMean()
	return d, nil
}

// mustEmpirical panics on invalid knots; used for the package's built-ins.
func mustEmpirical(name string, points []CDFPoint) *EmpiricalDist {
	d, err := NewEmpirical(name, points)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *EmpiricalDist) Name() string { return d.name }

// Sample inverts the CDF at a uniform variate, interpolating sizes
// log-linearly between knots (flow sizes span six orders of magnitude, so
// linear interpolation in log-space matches the published curves).
func (d *EmpiricalDist) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	pts := d.points
	if u <= pts[0].Prob {
		return pts[0].Bytes
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Prob >= u })
	lo, hi := pts[i-1], pts[i]
	frac := (u - lo.Prob) / (hi.Prob - lo.Prob)
	logSize := math.Log(float64(lo.Bytes)) + frac*(math.Log(float64(hi.Bytes))-math.Log(float64(lo.Bytes)))
	size := int64(math.Exp(logSize) + 0.5)
	if size < lo.Bytes {
		size = lo.Bytes
	}
	if size > hi.Bytes {
		size = hi.Bytes
	}
	return size
}

// Mean returns the expected flow size, computed by integrating the
// piecewise log-linear CDF.
func (d *EmpiricalDist) Mean() float64 { return d.mean }

func (d *EmpiricalDist) computeMean() float64 {
	// E[X] = Σ over segments of E[X | segment] · P(segment). Within a
	// segment, size = exp(a + f·b) with f uniform on (0,1]:
	// E = (e^(a+b) − e^a)/b for b ≠ 0.
	pts := d.points
	mean := float64(pts[0].Bytes) * pts[0].Prob
	for i := 1; i < len(pts); i++ {
		p := pts[i].Prob - pts[i-1].Prob
		a := math.Log(float64(pts[i-1].Bytes))
		b := math.Log(float64(pts[i].Bytes)) - a
		var seg float64
		if b == 0 {
			seg = float64(pts[i].Bytes)
		} else {
			// e^a·(e^b−1)/b via Expm1: the direct difference of
			// exponentials cancels catastrophically when the knots are
			// close in log-space.
			seg = math.Exp(a) * math.Expm1(b) / b
		}
		mean += seg * p
	}
	return mean
}

// pkts converts a count of full payload packets to bytes, the unit the
// published CDFs use (they quote sizes in 1460-byte packets; we use our
// payload size so that packet counts match).
func pkts(n int64) int64 { return n * packet.PayloadSize }

// IMC10 approximates the aggregated datacenter workload measured by Benson
// et al. (IMC 2010), as used by pHost and dcPIM: dominated by sub-10 KB
// flows with a tail into the tens of megabytes.
func IMC10() *EmpiricalDist {
	return mustEmpirical("IMC10", []CDFPoint{
		{pkts(1), 0.50}, {pkts(2), 0.60}, {pkts(4), 0.70}, {pkts(8), 0.80},
		{pkts(20), 0.90}, {pkts(70), 0.95}, {pkts(350), 0.99},
		{pkts(3500), 0.999}, {pkts(15000), 1.0},
	})
}

// WebSearch approximates the DCTCP web-search workload (Alizadeh et al.),
// as distributed with the pFabric/pHost simulators: flows from one packet
// to ~30k packets with about half the flows under 15 KB.
func WebSearch() *EmpiricalDist {
	return mustEmpirical("WebSearch", []CDFPoint{
		{pkts(1), 0.00001}, {pkts(2), 0.10}, {pkts(3), 0.20}, {pkts(5), 0.30},
		{pkts(7), 0.40}, {pkts(10), 0.53}, {pkts(15), 0.60}, {pkts(30), 0.70},
		{pkts(50), 0.80}, {pkts(80), 0.90}, {pkts(200), 0.95},
		{pkts(1000), 0.98}, {pkts(2000), 0.99}, {pkts(10000), 0.999},
		{pkts(30000), 1.0},
	})
}

// DataMining approximates the VL2 data-mining workload (Greenberg et al.),
// as distributed with the pFabric/pHost simulators: 80% of flows under
// 10 KB but with 95% of bytes in multi-megabyte flows and a tail to 1 GB.
func DataMining() *EmpiricalDist {
	return mustEmpirical("DataMining", []CDFPoint{
		{pkts(1), 0.50}, {pkts(2), 0.60}, {pkts(3), 0.70}, {pkts(7), 0.80},
		{pkts(267), 0.90}, {pkts(2107), 0.95}, {pkts(66667), 0.99},
		{pkts(666667), 1.0},
	})
}

// FixedDist returns every flow at exactly size bytes — used for the
// paper's worst-case "all flows of size BDP+1" microbenchmark (Fig. 4b).
type FixedDist struct {
	Size int64
	Tag  string
}

func (d FixedDist) Sample(*rand.Rand) int64 { return d.Size }
func (d FixedDist) Mean() float64           { return float64(d.Size) }
func (d FixedDist) Name() string {
	if d.Tag != "" {
		return d.Tag
	}
	return fmt.Sprintf("Fixed(%dB)", d.Size)
}

// TruncatedDist caps another distribution's samples at Max bytes. The
// sustainable-load experiment uses it to bound time-to-stationarity:
// untruncated heavy tails need tens of milliseconds of simulated warm-up
// before throughput measurements mean anything.
type TruncatedDist struct {
	Base SizeDist
	Max  int64
}

// Sample draws from Base and clamps, keeping the SizeDist contract of
// ≥ 1 byte even for a nonsensical Max.
func (d TruncatedDist) Sample(rng *rand.Rand) int64 {
	s := d.Base.Sample(rng)
	if s > d.Max {
		s = d.Max
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Mean estimates the truncated mean by quadrature over samples — exact
// integration isn't worth the code; generators only use Mean to set
// arrival rates, and a deterministic 64k-sample estimate is stable.
func (d TruncatedDist) Mean() float64 {
	rng := rand.New(rand.NewSource(12345))
	var sum float64
	const n = 1 << 16
	for i := 0; i < n; i++ {
		sum += float64(d.Sample(rng))
	}
	return sum / n
}

// Name identifies the distribution.
func (d TruncatedDist) Name() string {
	return fmt.Sprintf("%s≤%dKB", d.Base.Name(), d.Max>>10)
}
