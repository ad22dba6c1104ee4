package trace

import (
	"math"
	"testing"

	"repro/internal/clock"
)

// TestLatencyHistBuckets pins the log-linear bucketing rule: exact
// buckets below histSubBuckets, then histSubBuckets sub-buckets per
// power-of-two octave, with quantiles resolving to inclusive bucket
// upper edges.
func TestLatencyHistBuckets(t *testing.T) {
	var h LatencyHist
	h.Observe(0) // exact bucket 0
	h.Observe(1) // exact bucket 1
	h.Observe(5) // exact bucket 5
	h.Observe(7) // exact bucket 7
	if h.N != 4 {
		t.Fatalf("N = %d, want 4", h.N)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[5] != 1 || h.Counts[7] != 1 {
		t.Fatalf("counts = %v", h.Counts[:8])
	}
	if got := h.Quantile(0.25); got != 0 {
		t.Errorf("q25 = %v, want 0", got)
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("q50 = %v, want 1", got)
	}
	if got := h.Quantile(0.75); got != 5 {
		t.Errorf("q75 = %v, want 5", got)
	}
	if got := h.Quantile(1.0); got != 7 {
		t.Errorf("q100 = %v, want 7", got)
	}
	// A value in a higher octave lands in a sub-bucket an eighth of the
	// octave wide: 100 is in [96,103], not the whole [64,128) octave.
	var big LatencyHist
	big.Observe(100)
	if got := big.Quantile(1.0); got != 103 {
		t.Errorf("q100 of {100} = %v, want sub-bucket edge 103", got)
	}
	var empty LatencyHist
	if empty.P50() != 0 || empty.P95() != 0 || empty.P99() != 0 || empty.P999() != 0 {
		t.Error("empty histogram quantiles must be 0")
	}
}

// TestLatencyHistBucketRoundTrip checks bucketOf/BucketMax agree over
// every bucket: each bucket's upper edge maps back to that bucket, and
// the next value maps to the next bucket.
func TestLatencyHistBucketRoundTrip(t *testing.T) {
	for i := 0; i < LatencyBuckets; i++ {
		edge := BucketMax(i)
		if got := bucketOf(uint64(edge)); got != i {
			t.Fatalf("bucketOf(BucketMax(%d)=%v) = %d", i, edge, got)
		}
		if i+1 < LatencyBuckets {
			if got := bucketOf(uint64(edge) + 1); got != i+1 {
				t.Fatalf("bucketOf(%v+1) = %d, want %d", edge, got, i+1)
			}
		}
	}
	if got := BucketMax(LatencyBuckets - 1); got != clock.Picos(math.MaxInt64) {
		t.Errorf("top bucket edge = %v, want max Picos", got)
	}
}

// TestLatencyHistQuantileBounds checks the quantile is an upper bound
// that tightens to the sample's sub-bucket: at most an eighth of the
// value above it, not the previous layout's 2x.
func TestLatencyHistQuantileBounds(t *testing.T) {
	var h LatencyHist
	for i := 1; i <= 100; i++ {
		h.Observe(clock.Picos(i) * 100) // 100..10000 ps
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		exact := clock.Picos(q*100) * 100
		if got < exact {
			t.Errorf("q%.0f = %v below the exact value %v", q*100, got, exact)
		}
		if got > exact+exact/histSubBuckets {
			t.Errorf("q%.0f = %v looser than %d/%d of the exact value %v",
				q*100, got, histSubBuckets+1, histSubBuckets, exact)
		}
	}
}

// TestLatencyHistQuantileIntegerRank is the regression for the float
// rank bug: the old rank uint64(q*float64(N)) with a float ceil fixup
// over-counted by one whenever q*N landed exactly on an integer that
// float rounding nudged upward (0.55*20 = 11.000000000000002 ranked 12,
// 0.1*10 ranked 2). Integer arithmetic must return the exact bucket at
// every cumulative-count edge.
func TestLatencyHistQuantileIntegerRank(t *testing.T) {
	// 11 samples at 1, 9 at 5: rank(0.55) = ceil(0.55*20) = 11, the
	// last sample of bucket 1. The float rank said 12 and skipped to 5.
	var h LatencyHist
	for i := 0; i < 11; i++ {
		h.Observe(1)
	}
	for i := 0; i < 9; i++ {
		h.Observe(5)
	}
	if got := h.Quantile(0.55); got != 1 {
		t.Errorf("q55 of 11x{1}+9x{5} = %v, want 1 (rank 11 is still in bucket 1)", got)
	}
	// One sample in each exact bucket value 0..9: q = k/10 must resolve
	// to value k-1 for every k — each q*N lands exactly on a
	// cumulative-count edge.
	var u LatencyHist
	for v := 0; v < 10; v++ {
		u.Observe(clock.Picos(v))
	}
	for k := 1; k <= 10; k++ {
		q := float64(k) / 10
		if got := u.Quantile(q); got != clock.Picos(k-1) {
			t.Errorf("q=%g of {0..9} = %v, want %d", q, got, k-1)
		}
	}
	// The same edges for every bucket of a larger histogram: k samples
	// below a marker bucket, the rest above; q = k/N must stay below.
	const n = 64
	for k := 1; k < n; k++ {
		var b LatencyHist
		for i := 0; i < k; i++ {
			b.Observe(2)
		}
		for i := k; i < n; i++ {
			b.Observe(6)
		}
		if got := b.Quantile(float64(k) / n); got != 2 {
			t.Errorf("q=%d/%d of %dx{2}+%dx{6} = %v, want 2", k, n, k, n-k, got)
		}
	}
}

// TestLatencyHistP999 checks the new tail quantile distinguishes a
// 1-in-1000 outlier population from the body.
func TestLatencyHistP999(t *testing.T) {
	var h LatencyHist
	for i := 0; i < 9990; i++ {
		h.Observe(10)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1_000_000)
	}
	if got := h.P999(); got != 10 {
		t.Errorf("p99.9 = %v, want 10 (rank 9990 is the last body sample)", got)
	}
	if got := h.Quantile(0.9999); got < 1_000_000 {
		t.Errorf("p99.99 = %v, want an outlier bucket edge >= 1000000", got)
	}
}
