package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal reader of the gzip'd profile.proto that runtime/pprof writes:
// just the fields needed to walk each sample's stack as (function, file)
// frames. go.mod stays dependency-free.

// frame is one function on a sampled stack.
type frame struct {
	Func string // fully qualified, e.g. dcpim/internal/sim.(*Engine).Step
	File string
}

// stackSample is one profile sample: its stack, leaf first with inlined
// callees expanded, and its value in the profile's last sample type
// (CPU nanoseconds for a CPU profile).
type stackSample struct {
	Stack []frame
	Value int64
}

type profile struct {
	Samples []stackSample
}

// profile.proto field numbers.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4

	lineFunctionID = 1

	functionID       = 1
	functionName     = 2
	functionFilename = 4
)

var errTruncated = errors.New("pprof: truncated message")

// protoReader iterates the fields of one protobuf message.
type protoReader struct{ b []byte }

func (r *protoReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped over and
// returned with neither.
func (r *protoReader) next() (field int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = r.varint()
	case 1:
		err = r.skip(8)
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		err = r.skip(4)
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return field, v, data, err
}

func (r *protoReader) skip(n int) error {
	if n > len(r.b) {
		return errTruncated
	}
	r.b = r.b[n:]
	return nil
}

// repeatedVarint appends a repeated integer field's values, packed or not.
func repeatedVarint(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := protoReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzip'd (or raw) profile.proto.
func parseProfile(b []byte) (*profile, error) {
	if len(b) >= 2 && b[0] == 0x1f && b[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if b, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}

	type rawSample struct {
		locs  []uint64
		value int64
	}
	type rawFunc struct{ name, file uint64 }
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs   = map[uint64]rawFunc{}
		strs    []string
	)
	r := protoReader{b}
	for len(r.b) > 0 {
		field, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		m := protoReader{data}
		switch field {
		case profStringTable:
			strs = append(strs, string(data))
		case profSample:
			var s rawSample
			var values []uint64
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case sampleLocationID:
					s.locs, err = repeatedVarint(s.locs, v, d)
				case sampleValue:
					values, err = repeatedVarint(values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			samples = append(samples, s)
		case profLocation:
			var id uint64
			var fns []uint64
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case locationID:
					id = v
				case locationLine:
					l := protoReader{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == lineFunctionID {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case profFunction:
			var id uint64
			var fn rawFunc
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case functionID:
					id = v
				case functionName:
					fn.name = v
				case functionFilename:
					fn.file = v
				}
			}
			funcs[id] = fn
		}
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{Samples: make([]stackSample, 0, len(samples))}
	for _, s := range samples {
		out := stackSample{Value: s.value}
		for _, loc := range s.locs {
			for _, fid := range locs[loc] {
				fn := funcs[fid]
				out.Stack = append(out.Stack, frame{Func: str(fn.name), File: str(fn.file)})
			}
		}
		p.Samples = append(p.Samples, out)
	}
	return p, nil
}
