package trace

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// fakePort is a minimal mem.Port: fixed service latency, bounded queue,
// FIFO WaitSpace wakeups. It records accepted requests for order and
// occupancy assertions.
type fakePort struct {
	eng     *sim.Engine
	lat     clock.Picos
	cap     int
	inQ     int
	maxInQ  int
	waiters []func()

	addrs []uint64
	kinds []mem.Kind
}

func newFakePort(eng *sim.Engine, lat clock.Picos, capacity int) *fakePort {
	return &fakePort{eng: eng, lat: lat, cap: capacity}
}

func (p *fakePort) TryEnqueue(r *mem.Req) bool {
	if p.inQ >= p.cap {
		return false
	}
	p.inQ++
	if p.inQ > p.maxInQ {
		p.maxInQ = p.inQ
	}
	p.addrs = append(p.addrs, r.Addr)
	p.kinds = append(p.kinds, r.Kind)
	done := r.OnDone
	p.eng.After(p.lat, func() {
		p.inQ--
		if done != nil {
			done(p.eng.Now())
		}
		if len(p.waiters) > 0 {
			w := p.waiters[0]
			p.waiters = p.waiters[:copy(p.waiters, p.waiters[1:])]
			w()
		}
	})
	return true
}

func (p *fakePort) WaitSpace(fn func()) { p.waiters = append(p.waiters, fn) }

// replayConfig replays with 64 requests in flight, cacheable.
func replayConfig() DriverConfig {
	return DriverConfig{Process: ProcessReplay, MaxInFlight: 64, Cacheable: true}
}

func TestReplayCompletesAndTimes(t *testing.T) {
	const gap = 10 * clock.Nanosecond
	const lat = 3 * clock.Nanosecond
	recs := []Record{
		{TSC: 0, Kind: KindRead, Addr: 0, Bytes: 64},
		{TSC: gap, Kind: KindWrite, Addr: 64, Bytes: 64},
		{TSC: 2 * gap, Kind: KindRead, Addr: 4096, Bytes: 64},
	}
	res, port := runDriver(t, recs, replayConfig(), lat, 64)
	if res.Issued != 3 || res.Completed != 3 {
		t.Errorf("issued/completed = %d/%d, want 3/3", res.Issued, res.Completed)
	}
	if res.BytesRead != 128 || res.BytesWritten != 64 {
		t.Errorf("bytes = %d/%d, want 128/64", res.BytesRead, res.BytesWritten)
	}
	// No contention: every record issues exactly at its TSC and
	// completes one service latency later.
	if res.End != 2*gap+lat {
		t.Errorf("End = %v, want %v", res.End, 2*gap+lat)
	}
	if res.AvgService() != lat || res.AvgTotal() != lat {
		t.Errorf("service/total = %v/%v, want %v", res.AvgService(), res.AvgTotal(), lat)
	}
	if res.Retries != 0 || res.Slip != 0 {
		t.Errorf("uncontended replay reported pressure: %d retries, %v slip", res.Retries, res.Slip)
	}
	if want := []mem.Kind{mem.Read, mem.Write, mem.Read}; len(port.kinds) != 3 ||
		port.kinds[0] != want[0] || port.kinds[1] != want[1] || port.kinds[2] != want[2] {
		t.Errorf("kinds = %v, want %v", port.kinds, want)
	}
}

// A multi-line record expands to consecutive line requests.
func TestReplayExpandsMultiLineRecords(t *testing.T) {
	recs := []Record{{TSC: 0, Kind: KindRead, Addr: 1 << 12, Bytes: 4 * 64}}
	res, port := runDriver(t, recs, replayConfig(), clock.Nanosecond, 64)
	if res.Issued != 4 {
		t.Fatalf("issued %d line requests, want 4", res.Issued)
	}
	for i, a := range port.addrs {
		if want := uint64(1<<12) + uint64(i)*64; a != want {
			t.Errorf("line %d at 0x%x, want 0x%x", i, a, want)
		}
	}
}

// TestReplayMultiLineConservation replays records of one to eight lines
// against a small queue and in-flight cap: every line of the trace is
// due, issued and completed, each line's latency splits exactly into
// queue and service time, and Slip is the largest queue delay.
func TestReplayMultiLineConservation(t *testing.T) {
	var recs []Record
	var lines uint64
	for i := range 32 {
		n := uint32(i%8 + 1)
		recs = append(recs, Record{TSC: clock.Picos(i/4) * clock.Nanosecond, Kind: Kind(i % 2),
			Addr: uint64(i) << 12, Bytes: n * mem.LineBytes})
		lines += uint64(n)
	}
	cfg := replayConfig()
	cfg.MaxInFlight = 3
	res, port := runDriver(t, recs, cfg, 4*clock.Nanosecond, 2)
	if res.Arrivals != lines || res.Issued != lines || res.Completed != lines {
		t.Errorf("arrivals/issued/completed = %d/%d/%d, want %d lines each",
			res.Arrivals, res.Issued, res.Completed, lines)
	}
	if uint64(len(port.addrs)) != lines {
		t.Errorf("port saw %d requests, want %d", len(port.addrs), lines)
	}
	if res.QueueSum+res.ServiceSum != res.TotalSum {
		t.Errorf("queue %v + service %v != total %v", res.QueueSum, res.ServiceSum, res.TotalSum)
	}
	if res.Retries == 0 || res.Slip == 0 {
		t.Fatalf("contended replay reported no pressure: %d retries, %v slip", res.Retries, res.Slip)
	}
	top := LatencyBuckets - 1
	for res.Queue.Counts[top] == 0 {
		top--
	}
	if b := bucketOf(uint64(res.Slip)); b != top {
		t.Errorf("Slip %v in bucket %d, largest queue delay in bucket %d", res.Slip, b, top)
	}
}

// With a single-entry queue every request is serialized through
// backpressure: order is preserved, retries are counted, and the run
// takes one service latency per request.
func TestReplayBackpressureSerializes(t *testing.T) {
	const n = 16
	const lat = 5 * clock.Nanosecond
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{TSC: 0, Kind: KindRead, Addr: uint64(i) * 64, Bytes: 64}
	}
	res, port := runDriver(t, recs, replayConfig(), lat, 1)
	if res.Completed != n {
		t.Fatalf("completed %d, want %d", res.Completed, n)
	}
	if res.End != n*lat {
		t.Errorf("End = %v, want %v (fully serialized)", res.End, clock.Picos(n)*lat)
	}
	if res.Retries != n-1 {
		t.Errorf("retries = %d, want %d", res.Retries, n-1)
	}
	if res.Slip == 0 {
		t.Error("serialized replay reported zero slip")
	}
	for i, a := range port.addrs {
		if a != uint64(i)*64 {
			t.Fatalf("order broken at %d: 0x%x", i, a)
		}
	}
}

// MaxInFlight caps a replay's own outstanding requests even when
// the port has room.
func TestReplayInFlightCap(t *testing.T) {
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = Record{TSC: 0, Kind: KindRead, Addr: uint64(i) * 64, Bytes: 64}
	}
	cfg := replayConfig()
	cfg.MaxInFlight = 2
	res, port := runDriver(t, recs, cfg, 7*clock.Nanosecond, 1024)
	if res.Completed != 64 {
		t.Fatalf("completed %d, want 64", res.Completed)
	}
	if port.maxInQ > 2 {
		t.Errorf("port saw %d outstanding, want <= MaxInFlight 2", port.maxInQ)
	}
}

func TestReplayEmptyTrace(t *testing.T) {
	res, _ := runDriver(t, nil, replayConfig(), clock.Nanosecond, 4)
	if res.Issued != 0 || res.Completed != 0 || res.Duration() != 0 {
		t.Errorf("empty replay produced %+v", res)
	}
}

func TestReplayRejectsBadInput(t *testing.T) {
	eng := sim.New()
	port := newFakePort(eng, clock.Nanosecond, 4)
	bad := replayConfig()
	bad.MaxInFlight = 0
	if _, err := NewDriver(eng, port, nil, bad); err == nil {
		t.Error("MaxInFlight=0 accepted")
	}
	warped := []Record{
		{TSC: 10, Kind: KindRead, Addr: 0, Bytes: 64},
		{TSC: 5, Kind: KindRead, Addr: 64, Bytes: 64},
	}
	if _, err := NewDriver(eng, port, warped, replayConfig()); err == nil {
		t.Error("time-warped trace accepted")
	}
}

// Replays are pure functions of (trace, port behaviour, config): two
// fresh engines produce identical results field for field.
func TestReplayDeterministic(t *testing.T) {
	cfg := testGenConfig()
	cfg.Records = 2048
	recs := MustGenerate(PatternMixed, cfg)
	a, _ := runDriver(t, recs, replayConfig(), 9*clock.Nanosecond, 8)
	b, _ := runDriver(t, recs, replayConfig(), 9*clock.Nanosecond, 8)
	if a != b {
		t.Errorf("reruns differ:\n%+v\n%+v", a, b)
	}
}

// TestReplayLatencyHistogram checks a replay populates the histogram
// consistently with the scalar latency counters: a contention-free run
// has every sample equal to the service latency, so every percentile
// lands in that sample's bucket.
func TestReplayLatencyHistogram(t *testing.T) {
	const gap = 10 * clock.Nanosecond
	const lat = 3 * clock.Nanosecond
	recs := []Record{
		{TSC: 0, Kind: KindRead, Addr: 0, Bytes: 64},
		{TSC: gap, Kind: KindWrite, Addr: 64, Bytes: 64},
		{TSC: 2 * gap, Kind: KindRead, Addr: 4096, Bytes: 64},
	}
	res, _ := runDriver(t, recs, replayConfig(), lat, 64)
	if res.Service.N != res.Completed {
		t.Fatalf("histogram saw %d samples, completed %d", res.Service.N, res.Completed)
	}
	p50, p99 := res.Service.P50(), res.Service.P99()
	if p50 != p99 {
		t.Errorf("uniform latencies but p50 %v != p99 %v", p50, p99)
	}
	if p50 < lat || p50 > lat+lat/histSubBuckets {
		t.Errorf("p50 bound %v outside [%v, %v]", p50, lat, lat+lat/histSubBuckets)
	}
}

// rejectTailPort accepts the first accept requests, then rejects
// forever: the replay wedges behind the trace timeline with its tail
// never issued, which is exactly the case where slip sampled only at
// successful enqueue under-reports.
type rejectTailPort struct {
	*fakePort
	accept int
}

func (p *rejectTailPort) TryEnqueue(r *mem.Req) bool {
	if p.accept == 0 {
		return false
	}
	if !p.fakePort.TryEnqueue(r) {
		return false
	}
	p.accept--
	return true
}

// TestReplaySlipSampledAtStall is the regression for slip sampling: with
// the tail of the trace rejected, the old code (slip sampled only on
// successful enqueue, all at t=0 here) reported zero slip even though
// issue fell a full service latency behind. Snapshot must report how far
// the pending record lagged when the engine drained, and how far it lags
// once the clock has moved on without another issue attempt.
func TestReplaySlipSampledAtStall(t *testing.T) {
	const lat = 5 * clock.Nanosecond
	recs := make([]Record, 4)
	for i := range recs {
		recs[i] = Record{TSC: 0, Kind: KindRead, Addr: uint64(i) * 64, Bytes: 64}
	}
	eng := sim.New()
	port := &rejectTailPort{fakePort: newFakePort(eng, lat, 64), accept: 2}
	d, err := NewDriver(eng, port, recs, replayConfig())
	if err != nil {
		t.Fatal(err)
	}
	done := false
	d.Start(func(LoadResult) { done = true })
	eng.Run()
	if done {
		t.Fatal("replay completed despite a rejecting port")
	}
	res := d.Snapshot()
	if res.Issued != 2 || res.Completed != 2 {
		t.Fatalf("issued/completed = %d/%d, want 2/2", res.Issued, res.Completed)
	}
	if res.Retries == 0 {
		t.Error("rejected tail produced no retries")
	}
	// The engine drained at the last completion (t = lat); record 2 was
	// due at t = 0 and never issued, so issue slipped a full lat.
	if res.Slip != lat {
		t.Errorf("Slip = %v, want %v (pending record's lag at drain)", res.Slip, lat)
	}
	// With no issue attempt since, the clock moves on to 3*lat: the
	// snapshot folds in the pending record's lag as of now.
	eng.After(2*lat, func() {})
	eng.Run()
	if got := d.Snapshot().Slip; got != 3*lat {
		t.Errorf("Slip = %v after the clock moved on, want %v", got, 3*lat)
	}
}
