// Package sim provides a deterministic discrete-event simulation engine:
// a nanosecond-resolution virtual clock (stored in picoseconds so that
// sub-nanosecond serialization times on 400 Gbps links stay exact), a
// binary-heap event queue with stable FIFO ordering for simultaneous
// events, cancellable timers, and a seeded random source.
//
// The engine is single-threaded by design: all hosts, switches and links
// of a simulated datacenter share one event loop, which makes runs with
// identical seeds bit-for-bit reproducible.
package sim

import "fmt"

// Time is a point in simulated time, measured in integer picoseconds.
// Picosecond resolution keeps the serialization delay of a 64-byte control
// packet on a 400 Gbps link (1.28 ns) exact, avoiding the cumulative
// rounding drift a nanosecond clock would suffer.
type Time int64

// Duration is a span of simulated time in picoseconds. Time and Duration
// are distinct types so that "point + span" arithmetic is explicit.
type Duration int64

// Convenient duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts t to floating-point seconds since the start of the run.
func (t Time) Seconds() float64 { return float64(t) / 1e12 }

// Microseconds converts t to floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / 1e6 }

// Seconds converts d to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e12 }

// Microseconds converts d to floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / 1e6 }

// Nanoseconds converts d to floating-point nanoseconds.
func (d Duration) Nanoseconds() float64 { return float64(d) / 1e3 }

// Scale returns d scaled by x, rounding to the nearest picosecond.
func (d Duration) Scale(x float64) Duration {
	return Duration(float64(d)*x + 0.5)
}

func (t Time) String() string { return fmt.Sprintf("%.3fus", t.Microseconds()) }

func (d Duration) String() string { return fmt.Sprintf("%.3fus", d.Microseconds()) }

// FromSeconds converts floating-point seconds to a Duration.
func FromSeconds(s float64) Duration { return Duration(s*1e12 + 0.5) }

// TransmissionTime returns the time to serialize size bytes onto a link of
// rateBps bits per second.
func TransmissionTime(sizeBytes int, rateBps float64) Duration {
	return Duration(float64(sizeBytes*8)/rateBps*1e12 + 0.5)
}
