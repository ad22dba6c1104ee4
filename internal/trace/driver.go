package trace

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Process names an open-loop arrival process: arrivals that accrue on
// the simulated clock no matter what the memory system does — the
// open-loop model of user-driven traffic against a latency SLO. (A
// replay is the same drive with the trace's own TSCs as arrivals.)
type Process string

const (
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

// Processes lists every arrival process in a stable order.
func Processes() []Process {
	return []Process{ProcessFixed, ProcessPoisson, ProcessBurst}
}

// DriverConfig parameterizes an open-loop load driver.
type DriverConfig struct {
	// Process selects the arrival process.
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

	// MaxInFlight caps outstanding requests, exactly as in ReplayConfig;
	// arrivals beyond the cap queue at the driver and accrue queueing
	// delay.
	MaxInFlight int
	// Cacheable routes DRAM-region requests through the LLC.
	Cacheable bool
}

// DefaultDriverConfig models a moderate Poisson stream: one line per
// 8 ns offered (8 GB/s) over 64 us, with the Replayer's default agent
// aggressiveness.
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

// Validate reports configuration errors.
func (c DriverConfig) Validate() error {
	switch c.Process {
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
	if c.MaxInFlight <= 0 {
		return fmt.Errorf("trace: non-positive MaxInFlight %d", c.MaxInFlight)
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
func ArrivalSchedule(cfg DriverConfig) ([]clock.Picos, error) {
	if err := cfg.Validate(); err != nil {
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

// LoadResult aggregates one open-loop run. Every counter is a
// deterministic function of (trace, machine configuration, driver
// configuration) and the whole struct compares with ==.
type LoadResult struct {
	Arrivals  uint64 // scheduled arrivals (fixed by config, never throttled)
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

// AvgTotal is the mean arrival-to-completion latency.
func (r LoadResult) AvgTotal() clock.Picos {
	if r.Completed == 0 {
		return 0
	}
	return r.TotalSum / clock.Picos(r.Completed)
}

// Driver injects an open-loop arrival process through a mem.Port on the
// simulation engine. Its arrivals are a fixed schedule: backpressure
// converts directly into per-request queueing delay, never into fewer
// or later arrivals. Addresses and kinds come from the supplied records,
// cycled one line per arrival. A Replayer is the same injector driven by
// the records' own timeline.
type Driver struct{ in injector }

// NewDriver validates the configuration, materializes the arrival
// schedule, and builds a driver bound to the engine and port. The record
// slice supplies addresses and kinds (cycled when arrivals outnumber
// records) and is not copied; the caller must not mutate it during the
// run.
func NewDriver(eng *sim.Engine, port mem.Port, recs []Record, cfg DriverConfig) (*Driver, error) {
	arrivals, err := ArrivalSchedule(cfg)
	if err != nil {
		return nil, err
	}
	if err := Validate(recs); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: empty record stream")
	}
	d := &Driver{}
	d.in.init(eng, port, recs, arrivals, cfg.MaxInFlight, cfg.Cacheable)
	return d, nil
}

// Start begins the run; onDone runs (inside the engine) when every
// scheduled arrival has issued and completed. Start does not run the
// engine.
//
// Like the Replayer, a Driver runs exactly once — a second Start panics;
// build a fresh Driver per run.
func (d *Driver) Start(onDone func(LoadResult)) {
	d.in.begin(func() {
		if onDone != nil {
			onDone(d.in.res)
		}
	})
}
