package trace

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/clock"
	"repro/internal/mem"
)

// Pattern names a built-in synthetic workload generator. The patterns
// model the access shapes real applications present at the memory port:
// dense streaming, strided array walks, dependent pointer chasing,
// mixed read/write update loops, and skewed (zipfian) hot-set reuse.
type Pattern string

const (
	// PatternStream is a dense sequential read stream.
	PatternStream Pattern = "stream"
	// PatternStrided reads every StrideLines-th line.
	PatternStrided Pattern = "strided"
	// PatternChase walks a random permutation cycle over the footprint,
	// one dependent line per record.
	PatternChase Pattern = "chase"
	// PatternMixed issues uniform-random accesses over the footprint
	// with WritePercent percent stores.
	PatternMixed Pattern = "mixed"
	// PatternZipf reads a zipf-distributed hot set: a few lines absorb
	// most of the traffic.
	PatternZipf Pattern = "zipf"
)

// Patterns lists every built-in generator in a stable order.
func Patterns() []Pattern {
	return []Pattern{PatternStream, PatternStrided, PatternChase, PatternMixed, PatternZipf}
}

// GenConfig parameterizes the synthetic generators. Zero values select
// the defaults of DefaultGenConfig; every generator is fully
// deterministic in (pattern, config).
type GenConfig struct {
	// Records is the number of records to emit.
	Records int
	// Base is the address of the first line of the footprint.
	Base uint64
	// FootprintLines bounds the address span (chase, mixed, zipf).
	FootprintLines int
	// StrideLines is the distance between consecutive accesses for
	// the strided pattern.
	StrideLines int
	// Gap is the inter-arrival time between records.
	Gap clock.Picos
	// WritePercent is the store share (0-100) of the mixed pattern.
	WritePercent int
	// ZipfTheta is the zipf skew parameter (0 < theta < 1; larger is
	// more skewed).
	ZipfTheta float64
	// Seed drives the deterministic PRNG of the randomized patterns.
	Seed uint64
}

// DefaultGenConfig sizes a small but memory-system-exercising workload.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		Records:        1 << 14,
		FootprintLines: 1 << 16, // 4 MiB
		StrideLines:    4,
		Gap:            clock.Nanosecond,
		WritePercent:   30,
		ZipfTheta:      0.8,
		Seed:           1,
	}
}

// Validate reports configuration errors.
func (c GenConfig) Validate() error {
	if c.Records <= 0 {
		return fmt.Errorf("trace: non-positive record count %d", c.Records)
	}
	if c.Records > MaxArrivals {
		// Generate materializes every record up front.
		return fmt.Errorf("trace: %d records exceed %d", c.Records, MaxArrivals)
	}
	if c.Base%mem.LineBytes != 0 {
		return fmt.Errorf("trace: base address 0x%x not line-aligned", c.Base)
	}
	if c.FootprintLines <= 0 {
		return fmt.Errorf("trace: non-positive footprint %d lines", c.FootprintLines)
	}
	if c.FootprintLines > math.MaxInt32 {
		// Chase links and zipf guide entries are int32 line indices.
		return fmt.Errorf("trace: footprint %d lines exceeds %d", c.FootprintLines, math.MaxInt32)
	}
	if c.StrideLines <= 0 {
		return fmt.Errorf("trace: non-positive stride %d lines", c.StrideLines)
	}
	if c.Gap < 0 {
		return fmt.Errorf("trace: negative inter-arrival gap %v", c.Gap)
	}
	if c.Gap > 0 && int64(c.Records-1) > math.MaxInt64/int64(c.Gap) {
		// The last record's TSC, (Records-1)*Gap, must not wrap.
		return fmt.Errorf("trace: %d records at gap %dps overflow the picosecond clock", c.Records, int64(c.Gap))
	}
	if c.WritePercent < 0 || c.WritePercent > 100 {
		return fmt.Errorf("trace: write percent %d outside [0,100]", c.WritePercent)
	}
	if !(c.ZipfTheta > 0 && c.ZipfTheta < 1) { // also rejects NaN
		return fmt.Errorf("trace: zipf theta %g outside (0,1)", c.ZipfTheta)
	}
	return nil
}

// Generate builds the named synthetic pattern. The records are shared:
// a call with the same pattern and configuration as the previous one
// returns the same slice, so callers must treat them as read-only. The
// slice's capacity equals its length, so an append copies it.
func Generate(p Pattern, cfg GenConfig) ([]Record, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	traceMemo.mu.Lock()
	defer traceMemo.mu.Unlock()
	if traceMemo.recs != nil && traceMemo.p == p && traceMemo.cfg == cfg {
		return traceMemo.recs, nil
	}
	// Drop the old trace first, so it can be collected while the new
	// one is built instead of doubling the peak.
	traceMemo.recs = nil
	recs, err := synthesize(p, cfg)
	if err != nil {
		return nil, err
	}
	traceMemo.p, traceMemo.cfg, traceMemo.recs = p, cfg, recs[:len(recs):len(recs)]
	return traceMemo.recs, nil
}

// MustGenerate is Generate for static configurations; its records are
// shared and read-only in the same way.
func MustGenerate(p Pattern, cfg GenConfig) []Record {
	recs, err := Generate(p, cfg)
	if err != nil {
		panic(err)
	}
	return recs
}

// traceMemo keeps the last trace Generate built. A sweep sends one trace
// to every (offered load x design) point, and its jobs run in that
// order, so one entry catches the repeats while holding a single trace
// (24 B per record). Callers build under mu, so concurrent callers of
// one configuration build it once.
var traceMemo struct {
	mu   sync.Mutex
	p    Pattern
	cfg  GenConfig
	recs []Record
}

// synthesize builds a fresh trace of a validated configuration.
func synthesize(p Pattern, cfg GenConfig) ([]Record, error) {
	switch p {
	case PatternStream:
		return genLinear(cfg, 1), nil
	case PatternStrided:
		return genLinear(cfg, cfg.StrideLines), nil
	case PatternChase:
		return genChase(cfg), nil
	case PatternMixed:
		return genMixed(cfg), nil
	case PatternZipf:
		return genZipf(cfg), nil
	}
	return nil, fmt.Errorf("trace: unknown pattern %q", p)
}

// FootprintBytes reports the address span a pattern touches, for
// allocating its backing buffer.
func (c GenConfig) FootprintBytes(p Pattern) uint64 {
	switch p {
	case PatternStream:
		return uint64(c.Records) * mem.LineBytes
	case PatternStrided:
		return uint64(c.Records) * uint64(c.StrideLines) * mem.LineBytes
	default:
		return uint64(c.FootprintLines) * mem.LineBytes
	}
}

// genLinear emits one read per record at the given stride.
func genLinear(cfg GenConfig, stride int) []Record {
	recs := make([]Record, cfg.Records)
	for i := range recs {
		recs[i] = Record{
			TSC:   clock.Picos(i) * cfg.Gap,
			Kind:  KindRead,
			Addr:  cfg.Base + uint64(i)*uint64(stride)*mem.LineBytes,
			Bytes: mem.LineBytes,
		}
	}
	return recs
}

// genChase builds a single-cycle random permutation over the footprint
// (Sattolo's algorithm) and walks it, so every access depends on the
// previous one and the stream has no spatial locality.
func genChase(cfg GenConfig) []Record {
	n := cfg.FootprintLines
	next := make([]int32, n)
	for i := range next {
		next[i] = int32(i)
	}
	rng := splitmix64(cfg.Seed)
	for i := n - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i)) // j in [0, i): Sattolo, one cycle
		next[i], next[j] = next[j], next[i]
	}
	recs := make([]Record, cfg.Records)
	cur := int32(0)
	for i := range recs {
		recs[i] = Record{
			TSC:   clock.Picos(i) * cfg.Gap,
			Kind:  KindRead,
			Addr:  cfg.Base + uint64(cur)*mem.LineBytes,
			Bytes: mem.LineBytes,
		}
		cur = next[cur]
	}
	return recs
}

// genMixed emits uniform-random accesses over the footprint with the
// configured store share. Record i takes draws 2i and 2i+1 of the seed's
// stream, so chunks fill independently.
func genMixed(cfg GenConfig) []Record {
	recs := make([]Record, cfg.Records)
	fillChunked(len(recs), chunkArgs{cfg: cfg, recs: recs}, fillMixed)
	return recs
}

func fillMixed(a chunkArgs, lo, hi int) {
	cfg := a.cfg
	rng := splitmix64(cfg.Seed)
	rng.skip(2 * uint64(lo))
	recs := a.recs[lo:hi]
	for j := range recs {
		line := rng.next() % uint64(cfg.FootprintLines)
		kind := KindRead
		if int(rng.next()%100) < cfg.WritePercent {
			kind = KindWrite
		}
		recs[j] = Record{
			TSC:   clock.Picos(lo+j) * cfg.Gap,
			Kind:  kind,
			Addr:  cfg.Base + line*mem.LineBytes,
			Bytes: mem.LineBytes,
		}
	}
}

// genZipf emits reads whose line index follows a zipf(theta)
// distribution over the footprint: rank r is drawn with probability
// proportional to 1/r^theta, so a small hot set dominates. Record i
// takes draw i of the seed's stream.
func genZipf(cfg GenConfig) []Record {
	z := newZipfSampler(cfg.FootprintLines, cfg.ZipfTheta)
	recs := make([]Record, cfg.Records)
	fillChunked(len(recs), chunkArgs{cfg: cfg, recs: recs, z: z}, fillZipf)
	return recs
}

// zipfBatch is how many draws fillZipf resolves together, in three
// passes: draw and load the guide entries, load the CDF at each start,
// then walk. Once the tables outgrow the cache (2.3 MB at 2^18 lines), a
// draw's loads miss it; a batch's loads are independent, so their
// misses overlap instead of each stalling the walk that needs it.
const zipfBatch = 32

func fillZipf(a chunkArgs, lo, hi int) {
	cfg, z := a.cfg, a.z
	total := z.total()
	rng := splitmix64(cfg.Seed)
	rng.skip(uint64(lo))
	var us, cs [zipfBatch]float64
	var at [zipfBatch]int
	for b := lo; b < hi; b += zipfBatch {
		recs := a.recs[b:min(b+zipfBatch, hi)]
		for j := range recs {
			us[j] = rng.float64() * total
			at[j] = z.start(us[j])
		}
		for j := range recs {
			cs[j] = z.cum[at[j]]
		}
		for j := range recs {
			rank := z.walk(at[j], cs[j], us[j])
			recs[j] = Record{
				TSC:   clock.Picos(b+j) * cfg.Gap,
				Kind:  KindRead,
				Addr:  cfg.Base + uint64(rank)*mem.LineBytes,
				Bytes: mem.LineBytes,
			}
		}
	}
}

// zipfSampler inverts the zipf CDF with a guide table (the cutpoint
// method): O(footprint) to build, O(1) expected per draw. The weight
// range [0, total] splits into equal buckets, one per zipfRanksPerBucket
// ranks, and guide[b] is the first rank whose cumulative weight reaches
// bucket b's lower edge. A draw starts at its bucket's guide entry and
// walks to the smallest rank whose cumulative weight reaches u. Every
// bucket holds the same share of the probability, so the expected walk
// is about zipfRanksPerBucket+1 adjacent ranks at any skew.
type zipfSampler struct {
	cum   []float64 // cum[i] is the total weight of ranks 0..i
	guide []int32
	scale float64 // buckets per unit of weight
}

// zipfRanksPerBucket sizes the guide table at 1 B per footprint line, an
// eighth of the CDF's own 8 B. More buckets draw barely faster but grow
// the memory the sampler holds while its trace is drawn.
const zipfRanksPerBucket = 4

// newZipfSampler computes the per-rank weights in chunks and sums them
// serially, so every cumulative weight rounds as in one serial pass.
func newZipfSampler(n int, theta float64) *zipfSampler {
	cum := make([]float64, n)
	fillChunked(n, chunkArgs{cfg: GenConfig{ZipfTheta: theta}, weights: cum}, fillZipfWeights)
	var total float64
	for i, w := range cum {
		total += w
		cum[i] = total
	}
	nb := max(n/zipfRanksPerBucket, 1)
	z := &zipfSampler{cum: cum, guide: make([]int32, nb), scale: float64(nb) / total}
	r := 0
	for b := range z.guide {
		edge := float64(b) / z.scale
		for r < n-1 && cum[r] < edge {
			r++
		}
		z.guide[b] = int32(r)
	}
	return z
}

func fillZipfWeights(a chunkArgs, lo, hi int) {
	theta, w := a.cfg.ZipfTheta, a.weights[lo:hi]
	for j := range w {
		w[j] = 1 / fracPow(float64(lo+j+1), theta)
	}
}

// fracPow returns math.Pow(x, theta) bit for bit for x >= 1 and
// 0 < theta < 1, without Pow's special-case dispatch, fraction split and
// binary exponent bookkeeping. For such arguments Pow computes
// exp(theta*log x), or, for theta above one half, exp((theta-1)*log x)
// times x's mantissa, then scales by x's power of two. That scaling is
// exact, so one multiply by x rounds the same way.
func fracPow(x, theta float64) float64 {
	switch {
	case theta == 0.5:
		return math.Sqrt(x)
	case theta > 0.5:
		return math.Exp((theta-1)*math.Log(x)) * x
	}
	return math.Exp(theta * math.Log(x))
}

func (z *zipfSampler) total() float64 { return z.cum[len(z.cum)-1] }

// start returns the rank a draw of u walks from: its bucket's guide
// entry.
func (z *zipfSampler) start(u float64) int {
	return int(z.guide[min(max(int(u*z.scale), 0), len(z.guide)-1)])
}

// walk steps from start rank i, whose cumulative weight is c, to the
// smallest rank whose cumulative weight reaches u, the last rank if
// there is none: exactly what a binary search of the CDF returns. Float
// rounding in the bucket index can start the walk a bucket early or
// late. Early costs steps; late is undone by stepping back, so the
// rank never depends on the rounding.
func (z *zipfSampler) walk(i int, c, u float64) int {
	cum, last := z.cum, len(z.cum)-1
	for i < last && c < u {
		i++
		c = cum[i]
	}
	for i > 0 && cum[i-1] >= u {
		i--
	}
	return i
}

// rngState is a splitmix64 PRNG: tiny, fast, and identical on every
// platform, which the determinism contract requires.
type rngState uint64

func splitmix64(seed uint64) *rngState {
	r := rngState(seed)
	return &r
}

// splitmixGamma is the state increment of one draw.
const splitmixGamma = 0x9e3779b97f4a7c15

func (r *rngState) next() uint64 {
	*r += splitmixGamma
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// skip advances r past k draws: each draw adds splitmixGamma to the
// state, so k draws add k times it, modulo 2^64.
func (r *rngState) skip(k uint64) {
	*r += rngState(k * splitmixGamma)
}

// float64 returns a uniform value in [0, 1).
func (r *rngState) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// chunkMin is the fill length below which fillChunked stays serial:
// handing chunks to workers costs microseconds, about what 16K records
// take to fill.
const chunkMin = 1 << 14

// chunkArgs carries a fill's inputs by value, so handing a chunk to a
// worker allocates nothing.
type chunkArgs struct {
	cfg     GenConfig
	recs    []Record
	z       *zipfSampler
	weights []float64
}

type chunkJob struct {
	fill   func(a chunkArgs, lo, hi int)
	args   chunkArgs
	lo, hi int
}

// fanout is the process's pool of fill workers, grown to GOMAXPROCS-1 on
// demand. The fill holding mu owns every worker; a fill that finds mu
// held runs serially, as the cores are already busy with the other one.
// The workers are long-lived because a goroutine started per chunk
// allocates its closure, and the generator benches gate allocs/op.
var fanout struct {
	mu      sync.Mutex
	jobs    chan chunkJob
	done    sync.WaitGroup
	workers int
}

// fillChunked runs fill over [0, n) in GOMAXPROCS contiguous chunks,
// the first on the calling goroutine. A fill writes only its own chunk
// and derives everything else from its index range, so the result does
// not depend on the chunk count.
func fillChunked(n int, a chunkArgs, fill func(a chunkArgs, lo, hi int)) {
	w := runtime.GOMAXPROCS(0)
	if n < chunkMin || w < 2 || !fanout.mu.TryLock() {
		fill(a, 0, n)
		return
	}
	defer fanout.mu.Unlock()
	if fanout.jobs == nil {
		fanout.jobs = make(chan chunkJob)
	}
	for ; fanout.workers < w-1; fanout.workers++ {
		go fillWorker(fanout.jobs)
	}
	fanout.done.Add(w - 1)
	for c := 1; c < w; c++ {
		fanout.jobs <- chunkJob{fill, a, c * n / w, (c + 1) * n / w}
	}
	fill(a, 0, n/w)
	fanout.done.Wait()
}

func fillWorker(jobs <-chan chunkJob) {
	for j := range jobs {
		j.fill(j.args, j.lo, j.hi)
		fanout.done.Done()
	}
}
