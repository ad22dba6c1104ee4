package trace

import (
	"math"
	"testing"

	"repro/internal/clock"
	"repro/internal/sim"
)

// runDriver drives an open-loop run to completion on a fresh engine.
func runDriver(t *testing.T, recs []Record, cfg DriverConfig, lat clock.Picos, capacity int) (LoadResult, *fakePort) {
	t.Helper()
	eng := sim.New()
	port := newFakePort(eng, lat, capacity)
	d, err := NewDriver(eng, port, recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res LoadResult
	done := false
	d.Start(func(r LoadResult) { res = r; done = true })
	eng.Run()
	if !done {
		t.Fatal("open-loop run never completed")
	}
	return res, port
}

// testDriverConfig is a small fixed-rate config: 8 arrivals, one per
// 2 ns.
func testDriverConfig() DriverConfig {
	cfg := DefaultDriverConfig()
	cfg.Process = ProcessFixed
	cfg.MeanGap = 2 * clock.Nanosecond
	cfg.Duration = 16 * clock.Nanosecond
	return cfg
}

func streamRecs(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{TSC: 0, Kind: KindRead, Addr: uint64(i) * 64, Bytes: 64}
	}
	return recs
}

func TestDriverConfigValidate(t *testing.T) {
	bad := []DriverConfig{
		{}, // unknown process
		{Process: "nope", MeanGap: 1, Duration: 1, MaxInFlight: 1},
		{Process: ProcessFixed, MeanGap: 0, Duration: 1, MaxInFlight: 1},
		{Process: ProcessFixed, MeanGap: 1, Duration: 0, MaxInFlight: 1},
		{Process: ProcessFixed, MeanGap: 1, Duration: 1, MaxInFlight: 0},
		{Process: ProcessBurst, MeanGap: 1, Duration: 1, MaxInFlight: 1, OnTime: 0, OffTime: 1},
		{Process: ProcessBurst, MeanGap: 1, Duration: 1, MaxInFlight: 1, OnTime: 1, OffTime: -1},
		{Process: ProcessFixed, MeanGap: 1, Duration: 1 << 50, MaxInFlight: 1},
		{Process: ProcessPoisson, MeanGap: 3, Duration: 3 * (MaxArrivals + 1), MaxInFlight: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
		// The schedule reports the same error instead of panicking on an
		// out-of-range allocation.
		if arr, err := ArrivalSchedule(cfg); err == nil || arr != nil {
			t.Errorf("config %d: ArrivalSchedule = %d arrivals, %v; want an error", i, len(arr), err)
		}
	}
	if err := (DriverConfig{Process: ProcessFixed, MeanGap: 3, Duration: 3 * MaxArrivals, MaxInFlight: 1}).Validate(); err != nil {
		t.Errorf("config at the arrival bound rejected: %v", err)
	}
	if err := DefaultDriverConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	// A replay's arrivals are its records' TSCs: it needs no gap or
	// duration, only an in-flight cap.
	if err := (DriverConfig{Process: ProcessReplay}).Validate(); err == nil {
		t.Error("replay with MaxInFlight=0 accepted")
	}
	if arr, err := ArrivalSchedule(replayConfig()); err != nil || arr != nil {
		t.Errorf("replay schedule = %v, %v; want nil, nil", arr, err)
	}
}

// TestArrivalScheduleShapes pins the analytic arrival counts: fixed
// emits exactly ceil(Duration/MeanGap) arrivals; burst with equal
// on/off windows preserves the same count by halving the on-gap; the
// Poisson count is seed-deterministic and rate-plausible.
func TestArrivalScheduleShapes(t *testing.T) {
	cfg := DefaultDriverConfig()
	cfg.MeanGap = 8 * clock.Nanosecond
	cfg.Duration = 64 * clock.Microsecond
	want := int(cfg.Duration / cfg.MeanGap) // 8000

	cfg.Process = ProcessFixed
	fixed, err := ArrivalSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != want {
		t.Errorf("fixed arrivals = %d, want %d", len(fixed), want)
	}
	for i, a := range fixed {
		if a != clock.Picos(i)*cfg.MeanGap {
			t.Fatalf("fixed arrival %d at %v, want %v", i, a, clock.Picos(i)*cfg.MeanGap)
		}
	}

	cfg.Process = ProcessBurst
	burst, err := ArrivalSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(burst) != want {
		t.Errorf("burst arrivals = %d, want %d (mean rate preserved)", len(burst), want)
	}
	// All burst arrivals land inside on-windows.
	period := cfg.OnTime + cfg.OffTime
	for _, a := range burst {
		if a%period >= cfg.OnTime {
			t.Fatalf("burst arrival %v inside the off-window", a)
		}
	}

	cfg.Process = ProcessPoisson
	poisson, err := ArrivalSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(poisson); n < want*8/10 || n > want*12/10 {
		t.Errorf("poisson arrivals = %d, want within 20%% of %d", n, want)
	}
	again, _ := ArrivalSchedule(cfg)
	if len(again) != len(poisson) {
		t.Errorf("same seed, different schedules: %d vs %d", len(poisson), len(again))
	}
	cfg.Seed++
	other, _ := ArrivalSchedule(cfg)
	same := len(other) == len(poisson)
	if same {
		for i := range other {
			if other[i] != poisson[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

// TestDriverUncontended checks the bookkeeping on a run with no
// backpressure: every arrival issues at its scheduled time with zero
// queueing delay and completes one service latency later.
func TestDriverUncontended(t *testing.T) {
	const lat = 3 * clock.Nanosecond
	cfg := testDriverConfig()
	res, _ := runDriver(t, streamRecs(8), cfg, lat, 64)
	if res.Arrivals != 8 || res.Issued != 8 || res.Completed != 8 {
		t.Fatalf("arrivals/issued/completed = %d/%d/%d, want 8/8/8",
			res.Arrivals, res.Issued, res.Completed)
	}
	if res.QueueSum != 0 || res.Retries != 0 {
		t.Errorf("uncontended run queued: QueueSum=%v Retries=%d", res.QueueSum, res.Retries)
	}
	if res.AvgService() != lat || res.TotalSum != lat*clock.Picos(res.Completed) {
		t.Errorf("service/total = %v/%v, want %v", res.AvgService(), res.TotalSum/clock.Picos(res.Completed), lat)
	}
	if want := 7*cfg.MeanGap + lat; res.End != want {
		t.Errorf("End = %v, want %v", res.End, want)
	}
	if res.BytesRead != 8*64 || res.BytesWritten != 0 {
		t.Errorf("bytes = %d/%d, want 512/0", res.BytesRead, res.BytesWritten)
	}
	if res.MaxQueued > 1 {
		t.Errorf("MaxQueued = %d, want <= 1", res.MaxQueued)
	}
}

// TestDriverOpenLoopInvariant is the open-loop property test: the
// arrival count is a pure function of the config — identical across
// port capacities and service latencies that range from idle to deep
// saturation — and every arrival eventually issues and completes.
func TestDriverOpenLoopInvariant(t *testing.T) {
	recs := streamRecs(64)
	for _, proc := range []Process{ProcessFixed, ProcessPoisson, ProcessBurst} {
		cfg := DefaultDriverConfig()
		cfg.Process = proc
		cfg.MeanGap = 2 * clock.Nanosecond
		cfg.Duration = 2 * clock.Microsecond
		cfg.OnTime = 200 * clock.Nanosecond
		cfg.OffTime = 200 * clock.Nanosecond
		sched, err := ArrivalSchedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(len(sched))
		for _, p := range []struct {
			lat      clock.Picos
			capacity int
		}{
			{clock.Nanosecond, 1024},   // idle: service << gap
			{10 * clock.Nanosecond, 4}, // contended
			{50 * clock.Nanosecond, 1}, // deep saturation: 25x offered
		} {
			res, _ := runDriver(t, recs, cfg, p.lat, p.capacity)
			if res.Arrivals != want {
				t.Errorf("%s lat=%v cap=%d: arrivals = %d, want %d (backpressure throttled the open loop)",
					proc, p.lat, p.capacity, res.Arrivals, want)
			}
			if res.Issued != want || res.Completed != want {
				t.Errorf("%s lat=%v cap=%d: issued/completed = %d/%d, want %d",
					proc, p.lat, p.capacity, res.Issued, res.Completed, want)
			}
			if res.QueueSum+res.ServiceSum != res.TotalSum {
				t.Errorf("%s lat=%v cap=%d: queue %v + service %v != total %v",
					proc, p.lat, p.capacity, res.QueueSum, res.ServiceSum, res.TotalSum)
			}
		}
	}
}

// TestDriverQueueServiceSplit checks the per-request latency
// decomposition against an analytically solvable run: a single-entry
// port with service latency above the arrival gap serializes requests,
// so request k issues at k*lat after arriving at k*gap — queue delay
// k*(lat-gap), service lat, total their sum. The driver's histograms
// must equal histograms built from those exact per-request values.
func TestDriverQueueServiceSplit(t *testing.T) {
	const (
		n   = 8
		gap = 2 * clock.Nanosecond
		lat = 5 * clock.Nanosecond
	)
	cfg := testDriverConfig()
	res, _ := runDriver(t, streamRecs(n), cfg, lat, 1)
	var wantQ, wantS, wantT LatencyHist
	var wantQSum, wantSSum, wantTSum clock.Picos
	for k := clock.Picos(0); k < n; k++ {
		q := k * (lat - gap)
		wantQ.Observe(q)
		wantS.Observe(lat)
		wantT.Observe(q + lat)
		wantQSum += q
		wantSSum += lat
		wantTSum += q + lat
	}
	if res.Queue != wantQ {
		t.Errorf("queue histogram diverged from the per-request model")
	}
	if res.Service != wantS {
		t.Errorf("service histogram diverged from the per-request model")
	}
	if res.Total != wantT {
		t.Errorf("total histogram diverged from the per-request model")
	}
	if res.QueueSum != wantQSum || res.ServiceSum != wantSSum || res.TotalSum != wantTSum {
		t.Errorf("sums = %v/%v/%v, want %v/%v/%v",
			res.QueueSum, res.ServiceSum, res.TotalSum, wantQSum, wantSSum, wantTSum)
	}
	if res.Retries == 0 || res.MaxQueued == 0 {
		t.Errorf("saturated run reported no pressure: retries=%d maxQueued=%d",
			res.Retries, res.MaxQueued)
	}
	if want := (n - 1) * (lat - gap); res.Slip != want {
		t.Errorf("Slip = %v, want the last request's queue delay %v", res.Slip, want)
	}
}

// TestDriverMD1QueueingDelay checks the driver's queueing-delay
// accounting against queueing theory's closed form. Poisson arrivals
// into a single server (MaxInFlight=1, port capacity 1) with a fixed
// service time s form an M/D/1 queue, whose mean waiting time is
// Pollaczek–Khinchine's W_q = rho*s/(2*(1-rho)) at utilization
// rho = s/MeanGap. A driver whose queue delay drifted from
// arrival-to-issue time — or an arrival schedule whose gaps stopped
// being exponential — lands far outside the tolerance.
func TestDriverMD1QueueingDelay(t *testing.T) {
	const s = 4 * clock.Nanosecond
	const arrivals = 20000
	recs := streamRecs(64)
	for _, rho := range []float64{0.2, 0.5} {
		cfg := DefaultDriverConfig()
		cfg.Process = ProcessPoisson
		cfg.MeanGap = clock.Picos(float64(s) / rho)
		cfg.Duration = cfg.MeanGap * arrivals
		cfg.MaxInFlight = 1
		res, _ := runDriver(t, recs, cfg, s, 1)
		if res.Issued < arrivals*8/10 {
			t.Fatalf("rho=%.1f: only %d arrivals issued, want about %d", rho, res.Issued, arrivals)
		}
		want := rho * float64(s) / (2 * (1 - rho))
		got := float64(res.QueueSum) / float64(res.Issued)
		if diff := math.Abs(got-want) / want; diff > 0.15 {
			t.Errorf("rho=%.1f: mean queueing delay %.0f ps, M/D/1 predicts %.0f ps (%.0f%% off)",
				rho, got, want, 100*diff)
		}
	}
}

// TestDriverDeterministic: open-loop runs are pure functions of
// (records, port behaviour, config) — results compare equal with ==.
func TestDriverDeterministic(t *testing.T) {
	gcfg := testGenConfig()
	gcfg.Records = 512
	recs := MustGenerate(PatternMixed, gcfg)
	cfg := DefaultDriverConfig()
	cfg.MeanGap = 4 * clock.Nanosecond
	cfg.Duration = 4 * clock.Microsecond
	a, _ := runDriver(t, recs, cfg, 9*clock.Nanosecond, 8)
	b, _ := runDriver(t, recs, cfg, 9*clock.Nanosecond, 8)
	if a != b {
		t.Errorf("reruns differ:\n%+v\n%+v", a, b)
	}
}

// TestDriverStartTwicePanics pins the run-once contract, for a replay
// and an open loop alike: a second Start panics instead of silently
// resuming from stale cursors with accumulated counters.
func TestDriverStartTwicePanics(t *testing.T) {
	for _, cfg := range []DriverConfig{replayConfig(), testDriverConfig()} {
		eng := sim.New()
		port := newFakePort(eng, clock.Nanosecond, 4)
		d, err := NewDriver(eng, port, streamRecs(1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.Start(nil)
		eng.Run()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: second Start did not panic", cfg.Process)
				}
			}()
			d.Start(nil)
		}()
	}
}

func TestDriverRejectsBadInput(t *testing.T) {
	eng := sim.New()
	port := newFakePort(eng, clock.Nanosecond, 4)
	if _, err := NewDriver(eng, port, nil, testDriverConfig()); err == nil {
		t.Error("empty record stream accepted")
	}
	bad := testDriverConfig()
	bad.MaxInFlight = 0
	if _, err := NewDriver(eng, port, streamRecs(1), bad); err == nil {
		t.Error("MaxInFlight=0 accepted")
	}
}
