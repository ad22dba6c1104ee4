package trace

import (
	"math"
	"math/bits"

	"repro/internal/clock"
)

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
// log-linear layout above. The whole histogram is a value type — a
// LoadResult holds three without allocating and results compare with ==.
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
