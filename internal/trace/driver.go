package trace

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/clock"
	"repro/internal/mem"
)

// Process names how a Driver's line requests fall due. Under
// ProcessReplay each record falls due at its own TSC, all of its lines
// together. The others are open-loop arrival processes: arrivals that
// accrue on the simulated clock no matter what the memory system does —
// the open-loop model of user-driven traffic against a latency SLO.
type Process string

const (
	// ProcessReplay issues each record at its recorded TSC; MeanGap,
	// Duration and the burst and seed fields are ignored.
	ProcessReplay Process = "replay"
	// ProcessFixed arrives at exactly one request per MeanGap.
	ProcessFixed Process = "fixed"
	// ProcessPoisson draws exponential inter-arrival gaps with mean
	// MeanGap from the deterministic splitmix64 PRNG.
	ProcessPoisson Process = "poisson"
	// ProcessBurst alternates OnTime windows of dense fixed-gap arrivals
	// with OffTime windows of silence, preserving MeanGap as the
	// long-run mean inter-arrival time.
	ProcessBurst Process = "burst"
)

// DriverConfig parameterizes a Driver.
type DriverConfig struct {
	// Process selects how requests fall due.
	Process Process
	// MeanGap is the mean inter-arrival time; offered load is one line
	// request (mem.LineBytes) per MeanGap.
	MeanGap clock.Picos
	// Duration is the span of the arrival schedule: arrivals land in
	// [0, Duration) and their count is a pure function of the config,
	// never of the memory system's behavior.
	Duration clock.Picos
	// OnTime and OffTime shape the burst process: arrivals bunch inside
	// each OnTime window, every OnTime+OffTime period. Ignored by the
	// other processes.
	OnTime  clock.Picos
	OffTime clock.Picos
	// Seed drives the Poisson process's deterministic PRNG.
	Seed uint64

	// MaxInFlight caps outstanding requests, modelling the MSHR/queue
	// capacity of the injecting agent. Issue stalls at the cap and
	// resumes on the next completion; requests due meanwhile queue at
	// the driver and accrue queueing delay.
	MaxInFlight int
	// Cacheable routes DRAM-region requests through the LLC, as CPU
	// traffic would be; PIM-region requests are always non-cacheable,
	// matching the machine's routing rules.
	Cacheable bool
}

// DefaultDriverConfig models a moderate Poisson stream: one line per
// 8 ns offered (8 GB/s) over 64 us, from an agent with enough
// memory-level parallelism to saturate a channel.
func DefaultDriverConfig() DriverConfig {
	return DriverConfig{
		Process:     ProcessPoisson,
		MeanGap:     8 * clock.Nanosecond,
		Duration:    64 * clock.Microsecond,
		OnTime:      4 * clock.Microsecond,
		OffTime:     4 * clock.Microsecond,
		Seed:        1,
		MaxInFlight: 64,
		Cacheable:   true,
	}
}

// MaxArrivals bounds an open-loop schedule's expected arrival count,
// Duration/MeanGap, and a generated trace's record count:
// ArrivalSchedule and Generate materialize every arrival or record up
// front, so an unbounded count would exhaust memory (or overflow the
// slice capacity) instead of failing validation.
const MaxArrivals = 1 << 26

// Validate reports configuration errors.
func (c DriverConfig) Validate() error {
	if c.MaxInFlight <= 0 {
		return fmt.Errorf("trace: non-positive MaxInFlight %d", c.MaxInFlight)
	}
	switch c.Process {
	case ProcessReplay:
		return nil
	case ProcessFixed, ProcessPoisson:
	case ProcessBurst:
		if c.OnTime <= 0 {
			return fmt.Errorf("trace: non-positive burst on-time %v", c.OnTime)
		}
		if c.OffTime < 0 {
			return fmt.Errorf("trace: negative burst off-time %v", c.OffTime)
		}
	default:
		return fmt.Errorf("trace: unknown arrival process %q", c.Process)
	}
	if c.MeanGap <= 0 {
		return fmt.Errorf("trace: non-positive mean gap %v", c.MeanGap)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("trace: non-positive duration %v", c.Duration)
	}
	if n := c.Duration / c.MeanGap; n > MaxArrivals {
		return fmt.Errorf("trace: %d expected arrivals (duration %v / mean gap %v) exceed %d", int64(n), c.Duration, c.MeanGap, MaxArrivals)
	}
	return nil
}

// OfferedLoad is the configured offered load in bytes per second: one
// line request per MeanGap.
func (c DriverConfig) OfferedLoad() float64 {
	return mem.LineBytes / c.MeanGap.Seconds()
}

// ArrivalSchedule materializes the arrival times of the configured
// process, relative to the driver's start. The schedule is a pure
// function of the config — this is the open-loop invariant: the memory
// system cannot throttle, delay, or drop an arrival, only make it wait.
// It is nil under ProcessReplay, whose records fall due at their own
// TSCs.
func ArrivalSchedule(cfg DriverConfig) ([]clock.Picos, error) {
	if err := cfg.Validate(); err != nil || cfg.Process == ProcessReplay {
		return nil, err
	}
	arr := make([]clock.Picos, 0, int(cfg.Duration/cfg.MeanGap)+1)
	switch cfg.Process {
	case ProcessFixed:
		for t := clock.Picos(0); t < cfg.Duration; t += cfg.MeanGap {
			arr = append(arr, t)
		}
	case ProcessPoisson:
		rng := splitmix64(cfg.Seed)
		for t := clock.Picos(0); t < cfg.Duration; t += expGap(rng, cfg.MeanGap) {
			arr = append(arr, t)
		}
	case ProcessBurst:
		// Dense fixed-gap arrivals inside each OnTime window, silence
		// for OffTime, with the on-gap shrunk so the long-run mean
		// inter-arrival time stays MeanGap. 128-bit intermediate keeps
		// the product exact for any picosecond operands.
		period := cfg.OnTime + cfg.OffTime
		hi, lo := bits.Mul64(uint64(cfg.MeanGap), uint64(cfg.OnTime))
		q, _ := bits.Div64(hi, lo, uint64(period))
		onGap := clock.Picos(q)
		if onGap < 1 {
			onGap = 1
		}
		for start := clock.Picos(0); start < cfg.Duration; start += period {
			end := start + cfg.OnTime
			for t := start; t < end && t < cfg.Duration; t += onGap {
				arr = append(arr, t)
			}
		}
	}
	return arr, nil
}

// expGap draws an exponential inter-arrival gap with the given mean,
// floored at one picosecond so time always advances.
func expGap(rng *rngState, mean clock.Picos) clock.Picos {
	g := clock.Picos(math.Round(-math.Log(1-rng.float64()) * float64(mean)))
	if g < 1 {
		g = 1
	}
	return g
}

// LoadResult aggregates one Driver run, a replay or an open-loop drive.
// Every counter is a deterministic function of (trace, machine
// configuration, driver configuration) and the whole struct compares
// with ==. Arrivals == Issued == Completed holds for every completed
// run.
type LoadResult struct {
	Arrivals  uint64 // line requests due: the schedule's arrivals or the trace's lines, never throttled
	Issued    uint64 // requests handed to the port
	Completed uint64 // requests completed

	BytesRead    uint64
	BytesWritten uint64

	Start clock.Picos // engine time the run began
	End   clock.Picos // engine time the last completion arrived

	// Per-request latency decomposes exactly: Queue (arrival to issue,
	// time spent waiting at the driver behind the in-flight cap or a
	// full controller queue) + Service (issue to completion, time inside
	// the memory system) = Total (arrival to completion, what the user
	// sees). Sums report means; histograms report tails.
	QueueSum   clock.Picos
	ServiceSum clock.Picos
	TotalSum   clock.Picos
	Queue      LatencyHist
	Service    LatencyHist
	Total      LatencyHist

	// Retries counts TryEnqueue rejections (backpressure events).
	Retries uint64

	// MaxQueued is the deepest arrival backlog observed at an issue
	// opportunity: arrivals due but not yet issued. Under saturation it
	// grows without bound — the open-loop signature.
	MaxQueued uint64

	// Slip is the furthest issue fell behind a due time: the largest
	// issue - due delay, sampled at issue and at every stall. 0 means
	// the memory system kept up with the arrivals.
	Slip clock.Picos
}

// Duration is the wall-clock span of the run.
func (r LoadResult) Duration() clock.Picos { return r.End - r.Start }

// Bytes is the total traffic moved.
func (r LoadResult) Bytes() uint64 { return r.BytesRead + r.BytesWritten }

// Throughput is achieved bytes per second over the run duration.
func (r LoadResult) Throughput() float64 {
	if r.Duration() <= 0 {
		return 0
	}
	return float64(r.Bytes()) / r.Duration().Seconds()
}

// AvgService is the mean issue-to-completion latency.
func (r LoadResult) AvgService() clock.Picos {
	if r.Completed == 0 {
		return 0
	}
	return r.ServiceSum / clock.Picos(r.Completed)
}
