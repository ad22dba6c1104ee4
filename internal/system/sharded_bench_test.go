package system_test

import (
	"fmt"
	"testing"

	"repro/internal/clock"
	"repro/internal/contend"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/system"
	"repro/internal/trace"
)

// benchContenders builds a Table I machine on the given engine class
// with n spin contenders — the Fig. 13a interference workload: every
// thread alternates compute-span chains with LLC-hit loads — and runs it
// for simTime. It returns the machine and its threads for verification.
func benchContenders(shards, n int, simTime clock.Picos) (*system.System, []*cpu.Thread) {
	return runContenders(shards, n, simTime, func(st *contend.Stopper, base uint64) cpu.Program {
		return contend.Spin(st, base)
	})
}

// runContenders spawns n contenders, each over its own 16 KiB working
// set, on a Table I Base machine and runs it for simTime.
func runContenders(shards, n int, simTime clock.Picos, mk func(st *contend.Stopper, base uint64) cpu.Program) (*system.System, []*cpu.Thread) {
	cfg := system.DefaultConfig(system.Base)
	cfg.Shards = shards
	s := system.MustNew(cfg)
	const wset = 16 << 10
	base := s.Alloc(uint64(n) * wset)
	st := &contend.Stopper{}
	threads := make([]*cpu.Thread, n)
	for i := range threads {
		threads[i] = s.CPU.Spawn(fmt.Sprintf("contender-%d", i), mk(st, base+uint64(i)*wset), nil)
	}
	s.Eng.RunUntil(simTime)
	return s, threads
}

// memOps sums the memory operations the threads issued.
func memOps(threads []*cpu.Thread) uint64 {
	var n uint64
	for _, t := range threads {
		n += t.MemOps
	}
	return n
}

// BenchmarkEngineShardedCores measures the Fig. 13a spin-contender
// workload on the plain engine (serial) and the sharded one
// (host-lanes8).
func BenchmarkEngineShardedCores(b *testing.B) {
	const (
		contenders = 8
		simTime    = 4 * clock.Millisecond
	)
	for _, p := range []struct {
		name   string
		shards int
	}{
		{"serial", 0},
		{"host-lanes8", 8},
	} {
		b.Run(p.name, func(b *testing.B) {
			var ops uint64
			for i := 0; i < b.N; i++ {
				_, threads := benchContenders(p.shards, contenders, simTime)
				ops = memOps(threads)
			}
			b.ReportMetric(float64(ops), "memops")
		})
	}
}

// hitLoop returns a hit-dominated contender: bursts of LLC-hit loads
// inside a 16 KB working set separated by one short compute chunk. Where
// Spin spends 4096 cycles of compute per load, hitLoop issues four loads
// per 512 cycles — the completion stream is almost entirely LLC-hit
// deliveries. It never exits; the machine runs for a fixed simulated time.
func hitLoop(base uint64) cpu.Program {
	const (
		chunkCycles = 512
		burstLoads  = 4
		wsetBytes   = 16 << 10
	)
	i, phase := 0, 0
	return cpu.ProgramFunc(func() (cpu.Op, bool) {
		if phase < burstLoads {
			phase++
			addr := base + uint64(i%(wsetBytes/mem.LineBytes))*mem.LineBytes
			i++
			return cpu.Op{Kind: cpu.OpLoad, Addr: addr}, true
		}
		phase = 0
		return cpu.Op{Kind: cpu.OpCompute, Cycles: chunkCycles}, true
	})
}

// benchHitContenders is benchContenders with the hit-dominated workload
// and an oversubscribed thread count, so quantum rotations run under
// load.
func benchHitContenders(shards, n int, simTime clock.Picos) (*system.System, []*cpu.Thread) {
	return runContenders(shards, n, simTime, func(_ *contend.Stopper, base uint64) cpu.Program {
		return hitLoop(base)
	})
}

// BenchmarkEngineContendedHits measures a hit-dominated Fig. 13-style
// workload, where nearly every completion is an LLC-hit delivery, on the
// plain engine (serial) and the sharded one (host-lanes8).
func BenchmarkEngineContendedHits(b *testing.B) {
	const (
		contenders = 16
		simTime    = 2 * clock.Millisecond
	)
	for _, p := range []struct {
		name   string
		shards int
	}{
		{"serial", 0},
		{"host-lanes8", 8},
	} {
		b.Run(p.name, func(b *testing.B) {
			var ops uint64
			for i := 0; i < b.N; i++ {
				_, threads := benchHitContenders(p.shards, contenders, simTime)
				ops = memOps(threads)
			}
			b.ReportMetric(float64(ops), "memops")
		})
	}
}

// benchOpenLoop runs one open-loop Poisson load point (32 GB/s offered,
// the mixed pattern over a 1 MiB footprint) on the given engine class
// and returns its result for verification.
func benchOpenLoop(shards int) trace.LoadResult {
	cfg := system.DefaultConfig(system.PIMMMU)
	cfg.Shards = shards
	s := system.MustNew(cfg)
	gen := trace.DefaultGenConfig()
	gen.FootprintLines = 1 << 14
	gen.Base = s.Alloc(gen.FootprintBytes(trace.PatternMixed))
	recs := trace.MustGenerate(trace.PatternMixed, gen)
	dcfg := trace.DefaultDriverConfig()
	dcfg.MeanGap = 2 * clock.Nanosecond
	dcfg.Duration = 32 * clock.Microsecond
	r, err := s.RunLoad(recs, dcfg)
	if err != nil {
		panic(err)
	}
	return r
}

// BenchmarkEngineOpenLoopLoad measures the engine cost of the open-loop
// driver path — the loadcurve experiment's inner loop — on the plain
// engine (serial) and the sharded one (lanes1).
func BenchmarkEngineOpenLoopLoad(b *testing.B) {
	for _, p := range []struct {
		name   string
		shards int
	}{
		{"serial", 0},
		{"lanes1", 1},
	} {
		b.Run(p.name, func(b *testing.B) {
			var completed uint64
			for i := 0; i < b.N; i++ {
				completed = benchOpenLoop(p.shards).Completed
			}
			b.ReportMetric(float64(completed), "reqs")
		})
	}
}

// TestBenchContendersDeterministic pins that the benchmark workload
// itself is engine-class invariant — per-thread progress and LLC counts
// match bit for bit — so the comparison is apples to apples.
func TestBenchContendersDeterministic(t *testing.T) {
	workloads := []struct {
		name  string
		build func(shards int) (*system.System, []*cpu.Thread)
	}{
		{"spin", func(sh int) (*system.System, []*cpu.Thread) {
			return benchContenders(sh, 8, 2*clock.Millisecond)
		}},
		{"hit-loop", func(sh int) (*system.System, []*cpu.Thread) {
			return benchHitContenders(sh, 16, clock.Millisecond)
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			snap := func(shards int) string {
				s, threads := w.build(shards)
				out := fmt.Sprintf("now=%v", s.Eng.Now())
				for _, th := range threads {
					out += fmt.Sprintf(" [%s ops=%d]", th.Name, th.MemOps)
				}
				for _, c := range s.CPU.Cores() {
					out += fmt.Sprintf(" busy=%v", c.BusyTime())
				}
				ls := s.Mem.LLC.Stats()
				out += fmt.Sprintf(" llc=%d/%d", ls.Hits, ls.Misses)
				return out
			}
			if want, got := snap(0), snap(1); got != want {
				t.Errorf("sharded engine diverged:\nwant %s\ngot  %s", want, got)
			}
		})
	}
}
