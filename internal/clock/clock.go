// Package clock provides the fixed-point time base shared by every
// component of the simulator.
//
// All simulated time is expressed in integer picoseconds so that clock
// domains with non-commensurate frequencies (a 3.2 GHz CPU, a 1.2 GHz
// DDR4-2400 command bus, a 350 MHz DPU) can interoperate without floating
// point in the timing path.
package clock

import "fmt"

// Picos is a point in simulated time, or a duration, in picoseconds.
type Picos int64

// Convenient duration units.
const (
	Nanosecond  Picos = 1000
	Microsecond Picos = 1000 * Nanosecond
	Millisecond Picos = 1000 * Microsecond
	Second      Picos = 1000 * Millisecond
)

// Never is a sentinel meaning "no pending event".
const Never Picos = 1<<63 - 1

// Seconds converts a duration to floating-point seconds for reporting.
func (p Picos) Seconds() float64 { return float64(p) / float64(Second) }

// Nanoseconds converts a duration to floating-point nanoseconds for reporting.
func (p Picos) Nanoseconds() float64 { return float64(p) / float64(Nanosecond) }

func (p Picos) String() string {
	switch {
	case p == Never:
		return "never"
	case p >= Second:
		return fmt.Sprintf("%.3fs", p.Seconds())
	case p >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(p)/float64(Millisecond))
	case p >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(p)/float64(Microsecond))
	case p >= Nanosecond:
		return fmt.Sprintf("%.3fns", p.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(p))
	}
}

// Hz is a clock frequency in cycles per second.
type Hz int64

const (
	KHz Hz = 1000
	MHz Hz = 1000 * KHz
	GHz Hz = 1000 * MHz
)

// Domain is a clock domain: a frequency plus helpers to convert between
// cycle counts and picosecond timestamps. The zero value is unusable; use
// NewDomain.
type Domain struct {
	freq   Hz
	period Picos
}

// NewDomain builds a clock domain at the given frequency. It panics on a
// non-positive frequency because a domain is always a static configuration
// error, never a runtime condition.
func NewDomain(freq Hz) Domain {
	if freq <= 0 {
		panic(fmt.Sprintf("clock: non-positive frequency %d", freq))
	}
	return Domain{freq: freq, period: Picos(int64(Second) / int64(freq))}
}

// Cycles converts a duration to a whole number of elapsed cycles
// (truncating).
func (d Domain) Cycles(t Picos) int64 {
	if t < 0 {
		return 0
	}
	return int64(t) / int64(d.period)
}

// CyclesCeil converts a duration to cycles, rounding up, so that a
// component never acts before a constraint expires.
func (d Domain) CyclesCeil(t Picos) int64 {
	if t <= 0 {
		return 0
	}
	return (int64(t) + int64(d.period) - 1) / int64(d.period)
}

// Duration converts a cycle count to picoseconds.
func (d Domain) Duration(cycles int64) Picos { return Picos(cycles) * d.period }

// Align rounds t up to the next cycle boundary of this domain.
func (d Domain) Align(t Picos) Picos {
	p := int64(d.period)
	return Picos((int64(t) + p - 1) / p * p)
}

func (d Domain) String() string {
	switch {
	case d.freq >= GHz:
		return fmt.Sprintf("%.2fGHz", float64(d.freq)/float64(GHz))
	case d.freq >= MHz:
		return fmt.Sprintf("%.0fMHz", float64(d.freq)/float64(MHz))
	default:
		return fmt.Sprintf("%dHz", int64(d.freq))
	}
}
