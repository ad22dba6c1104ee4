package trace

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// ReplayConfig parameterizes trace injection.
type ReplayConfig struct {
	// MaxInFlight caps outstanding requests, modelling the MSHR/queue
	// capacity of the replayed agent. Issue stalls when the cap is
	// reached and resumes on the next completion.
	MaxInFlight int
	// Cacheable routes DRAM-region records through the LLC, as CPU
	// traffic would be; PIM-region records are always non-cacheable,
	// matching the machine's routing rules.
	Cacheable bool
}

// DefaultReplayConfig models a reasonably aggressive agent: enough
// memory-level parallelism to saturate a channel, cacheable DRAM
// traffic.
func DefaultReplayConfig() ReplayConfig {
	return ReplayConfig{MaxInFlight: 64, Cacheable: true}
}

// Validate reports configuration errors.
func (c ReplayConfig) Validate() error {
	if c.MaxInFlight <= 0 {
		return fmt.Errorf("trace: non-positive MaxInFlight %d", c.MaxInFlight)
	}
	return nil
}

// Histogram bucket layout: log-linear sub-buckets. Values below
// histSubBuckets occupy one exact bucket each; every higher power-of-two
// octave [2^e, 2^(e+1)) splits into histSubBuckets equal-width
// sub-buckets, so quantile resolution is 1/histSubBuckets (12.5%) of the
// value at every scale. The previous layout had one bucket per octave,
// whose 2x edges cannot resolve the knee of a latency-vs-load curve.
const (
	histSubBits    = 3
	histSubBuckets = 1 << histSubBits
)

// LatencyBuckets is the fixed bucket count of LatencyHist: histSubBuckets
// exact low buckets plus histSubBuckets sub-buckets for each octave up to
// 2^63 ps (~107 days, past every latency a simulated memory system can
// produce — the top bucket's inclusive edge is the maximum clock.Picos).
const LatencyBuckets = histSubBuckets + (63-histSubBits)*histSubBuckets

// LatencyHist is a deterministic fixed-bucket latency histogram over the
// log-linear layout above. The whole histogram is a value type — merging
// into Result needs no allocation and results compare with ==.
type LatencyHist struct {
	Counts [LatencyBuckets]uint64
	N      uint64
}

// bucketOf maps a picosecond value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSubBuckets {
		return int(v)
	}
	e := uint(bits.Len64(v)) - 1
	i := histSubBuckets + (int(e)-histSubBits)*histSubBuckets + int((v-uint64(1)<<e)>>(e-histSubBits))
	if i >= LatencyBuckets {
		return LatencyBuckets - 1
	}
	return i
}

// BucketMax reports the largest latency that maps to bucket i — the
// inclusive upper edge Quantile resolves to.
func BucketMax(i int) clock.Picos {
	if i < histSubBuckets {
		return clock.Picos(i)
	}
	e := uint(histSubBits + (i-histSubBuckets)/histSubBuckets)
	m := uint64((i-histSubBuckets)%histSubBuckets) + 1
	return clock.Picos(uint64(1)<<e + m<<(e-histSubBits) - 1)
}

// Observe records one latency sample. Negative samples cannot occur in a
// monotonic engine and are clamped to bucket zero defensively.
func (h *LatencyHist) Observe(lat clock.Picos) {
	if lat < 0 {
		lat = 0
	}
	h.Counts[bucketOf(uint64(lat))]++
	h.N++
}

// quantileDen is the fixed denominator quantiles are parsed against:
// every quantile used in practice (0.5, 0.95, 0.99, 0.999) is an exact
// multiple of 1e-6, so the rank computation below is pure integer
// arithmetic — float rounding can never push ceil(q*N) across a
// cumulative-count edge, which the previous float-product rank did at
// exact bucket boundaries (e.g. q=0.55, N=20 ranked 12 instead of 11).
const quantileDen = 1_000_000

// Quantile reports a deterministic upper bound for the q-quantile
// (0 < q <= 1): the inclusive upper edge of the bucket holding the
// ceil(q*N)-th smallest sample. Zero when the histogram is empty.
func (h *LatencyHist) Quantile(q float64) clock.Picos {
	if h.N == 0 {
		return 0
	}
	var num uint64
	if q > 0 {
		num = uint64(math.Round(q * quantileDen))
	}
	if num > quantileDen {
		num = quantileDen
	}
	// rank = ceil(num*N/quantileDen) in full 128-bit precision; num <=
	// 1e6 keeps the 128-bit product's high word below the divisor, so
	// Div64 cannot overflow.
	hi, lo := bits.Mul64(num, h.N)
	rank, rem := bits.Div64(hi, lo, quantileDen)
	if rem > 0 {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.Counts {
		if seen += c; seen >= rank {
			return BucketMax(i)
		}
	}
	return BucketMax(LatencyBuckets - 1)
}

// P50 is the median's bucket upper bound.
func (h *LatencyHist) P50() clock.Picos { return h.Quantile(0.50) }

// P95 is the 95th percentile's bucket upper bound.
func (h *LatencyHist) P95() clock.Picos { return h.Quantile(0.95) }

// P99 is the 99th percentile's bucket upper bound.
func (h *LatencyHist) P99() clock.Picos { return h.Quantile(0.99) }

// P999 is the 99.9th percentile's bucket upper bound.
func (h *LatencyHist) P999() clock.Picos { return h.Quantile(0.999) }

// Result aggregates one replay run. All counters are deterministic
// functions of (trace, machine configuration, replay configuration).
type Result struct {
	Issued    uint64 // line requests issued
	Completed uint64 // line requests completed

	BytesRead    uint64
	BytesWritten uint64

	Start clock.Picos // engine time the replay began
	End   clock.Picos // engine time the last completion arrived

	// LatencySum accumulates issue-to-completion time over all
	// requests; AvgLatency reports the mean.
	LatencySum clock.Picos

	// Latency buckets every per-request issue-to-completion time, so
	// replays report tail percentiles (P50/P95/P99), not just the mean.
	Latency LatencyHist

	// Retries counts TryEnqueue rejections (backpressure events).
	Retries uint64

	// Slip is the furthest issue fell behind the trace's own timeline:
	// the maximum queueing delay. 0 means the memory system kept up
	// with the recorded inter-arrival times.
	Slip clock.Picos
}

// Duration is the wall-clock span of the replay.
func (r Result) Duration() clock.Picos { return r.End - r.Start }

// Bytes is the total traffic moved.
func (r Result) Bytes() uint64 { return r.BytesRead + r.BytesWritten }

// Throughput is bytes per second over the replay duration.
func (r Result) Throughput() float64 {
	if r.Duration() <= 0 {
		return 0
	}
	return float64(r.Bytes()) / r.Duration().Seconds()
}

// AvgLatency is the mean issue-to-completion latency.
func (r Result) AvgLatency() clock.Picos {
	if r.Completed == 0 {
		return 0
	}
	return r.LatencySum / clock.Picos(r.Completed)
}

// Replayer replays a record stream through a mem.Port on the simulation
// engine: the open-loop drive of the records on their own timeline.
// Records fall due at their recorded TSCs; when the memory system pushes
// back (full controller queue, in-flight cap) issue slips later but
// record order is preserved, exactly like a core whose load queue has
// filled. Result.Slip is the largest such queueing delay.
type Replayer struct{ in injector }

// NewReplayer validates the trace and builds a replayer bound to the
// engine and port. The record slice is not copied; the caller must not
// mutate it during replay.
func NewReplayer(eng *sim.Engine, port mem.Port, recs []Record, cfg ReplayConfig) (*Replayer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := Validate(recs); err != nil {
		return nil, err
	}
	rp := &Replayer{}
	rp.in.init(eng, port, recs, nil, cfg.MaxInFlight, cfg.Cacheable)
	return rp, nil
}

// Start begins the replay; onDone runs (inside the engine) when every
// record has issued and completed. Start does not run the engine.
//
// A Replayer replays exactly once — a second Start panics; build a
// fresh Replayer per run.
func (rp *Replayer) Start(onDone func(Result)) {
	rp.in.begin(func() {
		if onDone != nil {
			onDone(rp.Snapshot())
		}
	})
}

// Snapshot reports the statistics accumulated so far without waiting for
// completion — the only view of a replay whose tail the port never
// accepts. If issue is still behind the trace timeline (stalled on a
// full queue or out of slots at the final records), the pending record's
// lag as of the engine clock is folded into Slip, so a wedged replay
// does not under-report how far issue fell behind.
func (rp *Replayer) Snapshot() Result {
	in := &rp.in
	slip := in.maxLag
	if in.started && in.next < in.positions() {
		slip = max(slip, in.eng.Now()-in.due(in.next))
	}
	r := &in.res
	return Result{
		Issued: r.Issued, Completed: r.Completed,
		BytesRead: r.BytesRead, BytesWritten: r.BytesWritten,
		Start: r.Start, End: r.End,
		LatencySum: r.ServiceSum, Latency: r.Service,
		Retries: r.Retries, Slip: slip,
	}
}
