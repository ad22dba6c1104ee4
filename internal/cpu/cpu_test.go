package cpu

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/mem"
	"repro/internal/sim"
)

// fakeMem is a fixed-latency memory port with optional admission control.
type fakeMem struct {
	eng      *sim.Engine
	latency  clock.Picos
	accepts  int // if >= 0, number of TryEnqueues to accept before failing once
	waiters  []func()
	count    int
	inFlight int
	maxIn    int
}

func (f *fakeMem) TryEnqueue(r *mem.Req) bool {
	if f.accepts == 0 {
		f.accepts = -1 // fail exactly once, then accept forever
		return false
	}
	if f.accepts > 0 {
		f.accepts--
	}
	f.count++
	f.inFlight++
	if f.inFlight > f.maxIn {
		f.maxIn = f.inFlight
	}
	done := r.OnDone
	f.eng.After(f.latency, func() {
		f.inFlight--
		if done != nil {
			done(f.eng.Now())
		}
	})
	return true
}

func (f *fakeMem) WaitSpace(fn func()) { f.eng.After(f.latency, fn) }

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.Cores = 2
	return cfg
}

// seqProgram yields a fixed slice of ops.
func seqProgram(ops []Op) Program {
	i := 0
	return ProgramFunc(func() (Op, bool) {
		if i >= len(ops) {
			return Op{}, false
		}
		op := ops[i]
		i++
		return op, true
	})
}

func TestComputeOpTiming(t *testing.T) {
	eng := sim.New()
	fm := &fakeMem{eng: eng, latency: 10 * clock.Nanosecond, accepts: -1}
	c := New(eng, testCfg(), fm)
	var endAt clock.Picos
	c.Spawn("w", seqProgram([]Op{{Kind: OpCompute, Cycles: 3200}}), func() { endAt = eng.Now() })
	eng.Run()
	// 3200 cycles at 3.2 GHz = 1 us (312 ps truncated period => 998.4 ns).
	want := c.dom.Duration(3200)
	if endAt != want {
		t.Errorf("compute end = %v, want %v", endAt, want)
	}
}

func TestBarrierWaitsForAllLoads(t *testing.T) {
	eng := sim.New()
	lat := 50 * clock.Nanosecond
	fm := &fakeMem{eng: eng, latency: lat, accepts: -1}
	c := New(eng, testCfg(), fm)
	ops := []Op{
		{Kind: OpLoad, Addr: 0},
		{Kind: OpLoad, Addr: 64},
		{Kind: OpLoad, Addr: 128},
		{Kind: OpBarrier},
	}
	var endAt clock.Picos
	c.Spawn("w", seqProgram(ops), func() { endAt = eng.Now() })
	eng.Run()
	if endAt < lat {
		t.Errorf("barrier released at %v, before load latency %v", endAt, lat)
	}
	if fm.count != 3 {
		t.Errorf("issued %d loads, want 3", fm.count)
	}
}

// Load buffers bound the outstanding requests (Little's law): with L
// buffers and latency T, issuing N >> L loads takes ~N*T/L.
func TestLoadBuffersBoundOutstanding(t *testing.T) {
	eng := sim.New()
	cfg := testCfg()
	cfg.LoadBuffers = 4
	fm := &fakeMem{eng: eng, latency: 100 * clock.Nanosecond, accepts: -1}
	c := New(eng, cfg, fm)
	const n = 200
	ops := make([]Op, 0, n+1)
	for i := 0; i < n; i++ {
		ops = append(ops, Op{Kind: OpLoad, Addr: uint64(i * 64)})
	}
	ops = append(ops, Op{Kind: OpBarrier})
	var endAt clock.Picos
	c.Spawn("w", seqProgram(ops), func() { endAt = eng.Now() })
	eng.Run()
	if fm.maxIn > cfg.LoadBuffers {
		t.Errorf("outstanding peaked at %d, cap is %d", fm.maxIn, cfg.LoadBuffers)
	}
	want := clock.Picos(n / 4 * 100 * 1000) // n*T/L
	if endAt < want*95/100 || endAt > want*115/100 {
		t.Errorf("streaming time = %v, want ~%v (Little's law)", endAt, want)
	}
}

func TestStoreBuffersIndependentOfLoadBuffers(t *testing.T) {
	eng := sim.New()
	cfg := testCfg()
	cfg.LoadBuffers = 2
	cfg.StoreBuffers = 8
	fm := &fakeMem{eng: eng, latency: 100 * clock.Nanosecond, accepts: -1}
	c := New(eng, cfg, fm)
	ops := make([]Op, 0, 16)
	for i := 0; i < 16; i++ {
		ops = append(ops, Op{Kind: OpStore, Addr: uint64(i * 64), NC: true})
	}
	ops = append(ops, Op{Kind: OpBarrier})
	c.Spawn("w", seqProgram(ops), nil)
	eng.Run()
	if fm.maxIn != 8 {
		t.Errorf("NC store outstanding peaked at %d, want StoreBuffers=8", fm.maxIn)
	}
}

func TestQueueFullRetriesViaWaitSpace(t *testing.T) {
	eng := sim.New()
	fm := &fakeMem{eng: eng, latency: 10 * clock.Nanosecond, accepts: 0} // first enqueue fails
	c := New(eng, testCfg(), fm)
	finished := false
	c.Spawn("w", seqProgram([]Op{{Kind: OpLoad, Addr: 0}, {Kind: OpBarrier}}), func() { finished = true })
	eng.Run()
	if !finished {
		t.Fatal("thread never finished after queue-full retry")
	}
	if fm.count != 1 {
		t.Errorf("issued %d requests, want 1", fm.count)
	}
}

func TestMoreThreadsThanCoresAllFinish(t *testing.T) {
	eng := sim.New()
	cfg := testCfg() // 2 cores
	fm := &fakeMem{eng: eng, latency: 20 * clock.Nanosecond, accepts: -1}
	c := New(eng, cfg, fm)
	finished := 0
	for i := 0; i < 7; i++ {
		ops := []Op{
			{Kind: OpCompute, Cycles: 1000},
			{Kind: OpLoad, Addr: uint64(i) * 4096},
			{Kind: OpBarrier},
		}
		c.Spawn("w", seqProgram(ops), func() { finished++ })
	}
	eng.Run()
	if finished != 7 {
		t.Errorf("finished %d of 7 threads", finished)
	}
}

// With more compute-bound threads than cores, the round-robin quantum must
// timeslice them: total wall time ~ totalWork / cores, and every thread
// finishes despite oversubscription.
func TestRoundRobinTimeslicing(t *testing.T) {
	eng := sim.New()
	cfg := testCfg() // 2 cores
	cfg.Quantum = clock.Millisecond
	fm := &fakeMem{eng: eng, latency: 20 * clock.Nanosecond, accepts: -1}
	c := New(eng, cfg, fm)
	// 4 threads x 16 ms of compute each (in 0.5 ms slices so preemption
	// boundaries interleave them) on 2 cores => ~32 ms total.
	perThread := 16 * clock.Millisecond
	sliceCycles := c.dom.Cycles(clock.Picos(clock.Millisecond / 2))
	nSlices := int(perThread / (clock.Millisecond / 2))
	var lastEnd clock.Picos
	var firstEnd clock.Picos
	finished := 0
	for i := 0; i < 4; i++ {
		ops := make([]Op, nSlices)
		for j := range ops {
			ops[j] = Op{Kind: OpCompute, Cycles: sliceCycles}
		}
		c.Spawn("w", seqProgram(ops), func() {
			finished++
			if firstEnd == 0 {
				firstEnd = eng.Now()
			}
			lastEnd = eng.Now()
		})
	}
	eng.Run()
	if finished != 4 {
		t.Fatalf("finished %d of 4", finished)
	}
	want := 32 * clock.Millisecond
	if lastEnd < want*9/10 || lastEnd > want*12/10 {
		t.Errorf("total time = %v, want ~%v", lastEnd, want)
	}
	// Fair RR: all four threads should finish in the same final quantum
	// region, not two-then-two far apart.
	if lastEnd-firstEnd > 4*clock.Millisecond {
		t.Errorf("finish spread = %v; round-robin should keep threads in lockstep", lastEnd-firstEnd)
	}
}

func TestActiveCoresAccounting(t *testing.T) {
	eng := sim.New()
	cfg := testCfg()
	fm := &fakeMem{eng: eng, latency: 20 * clock.Nanosecond, accepts: -1}
	c := New(eng, cfg, fm)
	if c.ActiveCores() != 0 {
		t.Error("fresh CPU has active cores")
	}
	c.Spawn("w", seqProgram([]Op{{Kind: OpCompute, Cycles: 32000}}), nil)
	if c.ActiveCores() != 1 {
		t.Errorf("ActiveCores = %d after one spawn, want 1", c.ActiveCores())
	}
	eng.Run()
	if c.ActiveCores() != 0 {
		t.Errorf("ActiveCores = %d after drain, want 0", c.ActiveCores())
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	eng := sim.New()
	cfg := testCfg()
	fm := &fakeMem{eng: eng, latency: 20 * clock.Nanosecond, accepts: -1}
	c := New(eng, cfg, fm)
	cycles := c.dom.Cycles(2 * clock.Millisecond)
	c.Spawn("w", seqProgram([]Op{{Kind: OpCompute, Cycles: cycles}}), nil)
	eng.Run()
	total := clock.Picos(0)
	for _, core := range c.Cores() {
		total += core.BusyTime()
	}
	if total < 19*clock.Millisecond/10 || total > 21*clock.Millisecond/10 {
		t.Errorf("busy time = %v, want ~2ms", total)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("Cores=0 accepted")
	}
	bad = DefaultConfig()
	bad.Quantum = 0
	if bad.Validate() == nil {
		t.Error("Quantum=0 accepted")
	}
}

func TestDefaultQuantumIs1500us(t *testing.T) {
	if q := DefaultConfig().Quantum; q != 1500*clock.Microsecond {
		t.Errorf("quantum = %v, want 1.5ms (Section V)", q)
	}
}
