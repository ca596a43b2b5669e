package metrics

import (
	"math"

	"dcpim/internal/checkpoint"
)

// CaptureState serializes the sampler's position and a fold of everything
// sampled so far: row count, cadence, and an FNV fold over every
// timestamp and value bit pattern. The fold keeps capture size constant
// over arbitrarily long series while still pinning each sample
// byte-for-byte — any diverging sample changes the fold. Nil-safe (the
// disabled-telemetry sampler captures as an empty marker).
func (s *Sampler) CaptureState(enc *checkpoint.Encoder) {
	if s == nil {
		enc.Bool(false)
		return
	}
	enc.Bool(true)
	enc.I64(int64(s.interval))
	enc.U32(uint32(len(s.cols)))
	enc.U32(uint32(len(s.times)))
	h := uint64(checkpoint.FoldInit)
	n := len(s.cols)
	for i, t := range s.times {
		h = checkpoint.Fold(h, uint64(t))
		for _, v := range s.vals[i*n : (i+1)*n] {
			h = checkpoint.Fold(h, math.Float64bits(v))
		}
	}
	enc.U64(h)
}
