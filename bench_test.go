// Benchmarks: one per paper table/figure (regenerating its measurement at
// reduced size) plus the ablation benches DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Each iteration performs one full simulation; custom metrics (GB/s,
// speedup ratios) carry the experiment's result. `pimmu run` prints
// the paper-style rows; these benches make the same machinery part of the
// go test workflow.
package pimmmu_test

import (
	"io"
	"testing"

	"repro/internal/clock"
	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/memsys"
	"repro/internal/prim"
	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/xfer"
)

const benchBytes = 2 << 20 // per-experiment transfer size in benches

func transferGBps(b *testing.B, d system.Design, dir core.Direction, total uint64) float64 {
	b.Helper()
	s := system.MustNew(system.DefaultConfig(d))
	per := total / uint64(s.Cfg.PIM.NumCores())
	if per < 64 {
		per = 64
	}
	per &^= 63
	r := s.RunTransfer(s.TransferOp(dir, s.Cfg.PIM.NumCores(), per))
	return r.Throughput() / 1e9
}

// BenchmarkTable1Config regenerates Table I (configuration assembly and
// validation).
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := system.DefaultConfig(system.PIMMMU)
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4BaselineUtilization measures the baseline transfer with
// the power sampler attached (the Fig. 4 trace).
func BenchmarkFig4BaselineUtilization(b *testing.B) {
	var watts float64
	for i := 0; i < b.N; i++ {
		s := system.MustNew(system.DefaultConfig(system.Base))
		trace, stop := s.SamplePower(50 * clock.Microsecond)
		per := uint64(benchBytes) / uint64(s.Cfg.PIM.NumCores()) &^ 63
		s.RunTransfer(s.TransferOp(core.DRAMToPIM, s.Cfg.PIM.NumCores(), per))
		stop()
		n := trace.Watts.Len()
		if n > 0 {
			watts = trace.Watts.Bucket(n / 2)
		}
	}
	b.ReportMetric(watts, "watts-mid")
}

// BenchmarkFig6ChannelBreakdown measures the baseline's channel-herding
// share (fraction of early traffic on PIM channel 0).
func BenchmarkFig6ChannelBreakdown(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		s := system.MustNew(system.DefaultConfig(system.Base))
		per := uint64(4<<20) / uint64(s.Cfg.PIM.NumCores()) &^ 63
		op := s.TransferOp(core.DRAMToPIM, s.Cfg.PIM.NumCores(), per)
		done := false
		s.StartTransfer(op, func(system.XferResult) { done = true })
		target := op.Bytes() / 4
		s.Eng.RunWhile(func() bool {
			return !done && s.Mem.PIM.Stats().BytesWritten() < target
		})
		st := s.Mem.PIM.Stats()
		share = float64(st.Channels[0].BytesWritten) / float64(st.BytesWritten())
		s.Eng.Run()
	}
	b.ReportMetric(share, "ch0-share")
}

// BenchmarkFig8MappingBandwidth measures the locality/MLP bandwidth ratio.
func BenchmarkFig8MappingBandwidth(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		run := func(d system.Design) float64 {
			s := system.MustNew(system.DefaultConfig(d))
			cfg := xfer.DefaultStreamConfig()
			base := s.Alloc(1 << 24)
			var res xfer.Result
			done := false
			xfer.RunStream(s.CPU, base, 1<<13, cfg, func(x xfer.Result) { res = x; done = true })
			s.Eng.RunWhile(func() bool { return !done })
			return res.Throughput()
		}
		r = run(system.Base) / run(system.PIMMMU)
	}
	b.ReportMetric(r, "locality/mlp")
}

// BenchmarkFig13aComputeContention measures baseline slowdown under 16
// compute contenders vs PIM-MMU slowdown. The four independent machines
// (2 designs x contended/idle) fan out through one sweep.
func BenchmarkFig13aComputeContention(b *testing.B) {
	run := func(d system.Design, n int) float64 {
		s := system.MustNew(system.DefaultConfig(d))
		if n > 0 {
			base := s.Alloc(uint64(n) * (16 << 10))
			s.Contenders(n, func(j int, st *contend.Stopper) cpu.Program {
				return contend.Spin(st, base+uint64(j)*(16<<10))
			})
		}
		per := uint64(benchBytes) / uint64(s.Cfg.PIM.NumCores()) &^ 63
		r := s.RunTransfer(s.TransferOp(core.DRAMToPIM, s.Cfg.PIM.NumCores(), per))
		return r.Duration.Seconds()
	}
	points := []struct {
		d system.Design
		n int
	}{{system.Base, 16}, {system.Base, 0}, {system.PIMMMU, 16}, {system.PIMMMU, 0}}
	var baseSlow, mmuSlow float64
	for i := 0; i < b.N; i++ {
		lat := sweep.MapN(len(points), 0, func(j int) float64 { return run(points[j].d, points[j].n) })
		baseSlow = lat[0] / lat[1]
		mmuSlow = lat[2] / lat[3]
	}
	b.ReportMetric(baseSlow, "base-slowdown")
	b.ReportMetric(mmuSlow, "mmu-slowdown")
}

// BenchmarkFig13bMemoryContention measures slowdown under very-high
// intensity memory contenders.
func BenchmarkFig13bMemoryContention(b *testing.B) {
	var baseSlow, mmuSlow float64
	for i := 0; i < b.N; i++ {
		run := func(d system.Design, hog bool) float64 {
			s := system.MustNew(system.DefaultConfig(d))
			if hog {
				const fp = 64 << 20
				base := s.Alloc(4 * fp)
				s.Contenders(4, func(j int, st *contend.Stopper) cpu.Program {
					return contend.MemoryHog(st, base+uint64(j)*fp, fp, contend.VeryHigh)
				})
			}
			per := uint64(benchBytes) / uint64(s.Cfg.PIM.NumCores()) &^ 63
			r := s.RunTransfer(s.TransferOp(core.DRAMToPIM, s.Cfg.PIM.NumCores(), per))
			return r.Duration.Seconds()
		}
		points := []struct {
			d   system.Design
			hog bool
		}{{system.Base, true}, {system.Base, false}, {system.PIMMMU, true}, {system.PIMMMU, false}}
		lat := sweep.MapN(len(points), 0, func(j int) float64 { return run(points[j].d, points[j].hog) })
		baseSlow = lat[0] / lat[1]
		mmuSlow = lat[2] / lat[3]
	}
	b.ReportMetric(baseSlow, "base-slowdown")
	b.ReportMetric(mmuSlow, "mmu-slowdown")
}

// BenchmarkFig14MemcpyThroughput measures the PIM-MMU/baseline memcpy
// gain on the 4C-8R configuration.
func BenchmarkFig14MemcpyThroughput(b *testing.B) {
	var gain float64
	designs := []system.Design{system.PIMMMU, system.Base}
	for i := 0; i < b.N; i++ {
		thr := sweep.MapN(len(designs), 0, func(j int) float64 {
			s := system.MustNew(system.DefaultConfig(designs[j]))
			return s.RunMemcpy(4 << 20).Throughput()
		})
		gain = thr[0] / thr[1]
	}
	b.ReportMetric(gain, "memcpy-gain")
}

// BenchmarkFig15aAblationThroughput measures the four design points'
// DRAM->PIM throughput, fanned out through one sweep.
func BenchmarkFig15aAblationThroughput(b *testing.B) {
	designs := system.Designs()
	var vals []float64
	for i := 0; i < b.N; i++ {
		vals = sweep.MapN(len(designs), 0, func(j int) float64 {
			return transferGBps(b, designs[j], core.DRAMToPIM, benchBytes)
		})
	}
	b.ReportMetric(vals[1]/vals[0], "base+d")
	b.ReportMetric(vals[2]/vals[0], "base+d+h")
	b.ReportMetric(vals[3]/vals[0], "pim-mmu")
}

// BenchmarkFig15bAblationEnergy measures the energy ratio of the full
// PIM-MMU vs Base.
func BenchmarkFig15bAblationEnergy(b *testing.B) {
	var ratio float64
	designs := []system.Design{system.Base, system.PIMMMU}
	for i := 0; i < b.N; i++ {
		joules := sweep.MapN(len(designs), 0, func(j int) float64 {
			s := system.MustNew(system.DefaultConfig(designs[j]))
			before := s.Activity()
			per := uint64(benchBytes) / uint64(s.Cfg.PIM.NumCores()) &^ 63
			s.RunTransfer(s.TransferOp(core.DRAMToPIM, s.Cfg.PIM.NumCores(), per))
			return s.EnergyOver(before, s.Activity()).Total()
		})
		ratio = joules[0] / joules[1]
	}
	b.ReportMetric(ratio, "energy-gain")
}

// BenchmarkFig16PrimEndToEnd measures a transfer-heavy PrIM workload's
// end-to-end speedup at reduced scale.
func BenchmarkFig16PrimEndToEnd(b *testing.B) {
	w, _ := prim.ByName("VA")
	var speedup float64
	for i := 0; i < b.N; i++ {
		base := system.MustNew(system.DefaultConfig(system.Base))
		pb := prim.RunEndToEnd(base, w, 1.0/128)
		mmu := system.MustNew(system.DefaultConfig(system.PIMMMU))
		pm := prim.RunEndToEnd(mmu, w, 1.0/128)
		speedup = float64(pb.Total()) / float64(pm.Total())
	}
	b.ReportMetric(speedup, "va-speedup")
}

// BenchmarkAreaOverhead evaluates the Section VI-C area model.
func BenchmarkAreaOverhead(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig()
		frac = energy.DieOverheadFraction(cfg.DataBufBytes, cfg.AddrBufBytes)
	}
	b.ReportMetric(frac*100, "die-%")
}

// BenchmarkHeadline regenerates the abstract's average speedup at reduced
// size.
func BenchmarkHeadline(b *testing.B) {
	var speedup float64
	designs := []system.Design{system.Base, system.PIMMMU}
	for i := 0; i < b.N; i++ {
		thr := sweep.MapN(len(designs), 0, func(j int) float64 {
			return transferGBps(b, designs[j], core.DRAMToPIM, benchBytes)
		})
		speedup = thr[1] / thr[0]
	}
	b.ReportMetric(speedup, "xfer-speedup")
}

// BenchmarkSweepAblation measures the Fig. 15-style four-design ablation
// through internal/sweep, serial vs parallel — the whole-suite wall-clock
// win of the sweep layer (expect >= 1.5x on machines with >= 4 cores; on
// fewer cores the two are equivalent).
func BenchmarkSweepAblation(b *testing.B) {
	designs := system.Designs()
	job := func(j int) float64 {
		return transferGBps(b, designs[j], core.DRAMToPIM, benchBytes)
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep.MapN(len(designs), 1, job)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep.MapN(len(designs), 0, job)
		}
	})
}

// --- Ablation benches (DESIGN.md design choices) ---

// BenchmarkAblationIssueOrder compares the three issue orders of the
// DESIGN.md ablation — Algorithm 1, channel round-robin only, and fully
// sequential — with an equalized in-flight window so only the order
// differs.
func BenchmarkAblationIssueOrder(b *testing.B) {
	run := func(usePIMMS, chRR bool) float64 {
		cfg := system.DefaultConfig(system.PIMMMU)
		cfg.DCE.UsePIMMS = usePIMMS
		cfg.DCE.ChannelRRWithoutPIMMS = chRR
		cfg.DCE.DMAWindow = cfg.DCE.DataBufBytes / 64
		s := system.MustNew(cfg)
		per := uint64(benchBytes) / uint64(s.Cfg.PIM.NumCores()) &^ 63
		return s.RunTransfer(s.TransferOp(core.DRAMToPIM, s.Cfg.PIM.NumCores(), per)).Throughput()
	}
	var alg1Gain, chRRGain float64
	points := []struct{ pimms, chRR bool }{{false, false}, {true, false}, {false, true}}
	for i := 0; i < b.N; i++ {
		thr := sweep.MapN(len(points), 0, func(j int) float64 {
			return run(points[j].pimms, points[j].chRR)
		})
		alg1Gain = thr[1] / thr[0]
		chRRGain = thr[2] / thr[0]
	}
	b.ReportMetric(alg1Gain, "alg1-gain")
	b.ReportMetric(chRRGain, "chrr-gain")
}

// BenchmarkAblationDCEWindow sweeps the vanilla DMA in-flight window.
func BenchmarkAblationDCEWindow(b *testing.B) {
	for _, window := range []int{4, 8, 32, 128} {
		window := window
		b.Run(byWindow(window), func(b *testing.B) {
			var gbps float64
			for i := 0; i < b.N; i++ {
				cfg := system.DefaultConfig(system.BaseDH)
				cfg.DCE.DMAWindow = window
				s := system.MustNew(cfg)
				per := uint64(benchBytes) / uint64(s.Cfg.PIM.NumCores()) &^ 63
				gbps = s.RunTransfer(s.TransferOp(core.DRAMToPIM, s.Cfg.PIM.NumCores(), per)).Throughput() / 1e9
			}
			b.ReportMetric(gbps, "GB/s")
		})
	}
}

func byWindow(w int) string {
	switch w {
	case 4:
		return "window4"
	case 8:
		return "window8"
	case 32:
		return "window32"
	default:
		return "window128"
	}
}

// BenchmarkAblationXORHash compares the MLP mapping with and without
// permutation-based XOR hashing on a strided stream.
func BenchmarkAblationXORHash(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		run := func(d system.Design) float64 {
			cfg := system.DefaultConfig(d)
			s := system.MustNew(cfg)
			strCfg := xfer.DefaultStreamConfig()
			strCfg.StrideLines = 128 // row-sized stride: the hash's worst enemy
			base := s.Alloc(1 << 28)
			var res xfer.Result
			done := false
			xfer.RunStream(s.CPU, base, 1<<11, strCfg, func(x xfer.Result) { res = x; done = true })
			s.Eng.RunWhile(func() bool { return !done })
			return res.Throughput()
		}
		hashOn := run(system.PIMMMU)
		hashOff := runNoHash()
		gain = hashOn / hashOff
	}
	b.ReportMetric(gain, "hash-gain")
}

func runNoHash() float64 {
	cfg := system.DefaultConfig(system.PIMMMU)
	cfg.Mem.Mapping = memsys.MapHetMapNoHash
	s := system.MustNew(cfg)
	strCfg := xfer.DefaultStreamConfig()
	strCfg.StrideLines = 128
	base := s.Alloc(1 << 28)
	var res xfer.Result
	done := false
	xfer.RunStream(s.CPU, base, 1<<11, strCfg, func(x xfer.Result) { res = x; done = true })
	s.Eng.RunWhile(func() bool { return !done })
	return res.Throughput()
}

// BenchmarkAblationOSQuantum sweeps the baseline's OS scheduling quantum
// under compute contention.
func BenchmarkAblationOSQuantum(b *testing.B) {
	for _, q := range []clock.Picos{clock.Millisecond / 2, 3 * clock.Millisecond / 2, 4 * clock.Millisecond} {
		q := q
		b.Run(q.String(), func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				cfg := system.DefaultConfig(system.Base)
				cfg.CPU.Quantum = q
				s := system.MustNew(cfg)
				base := s.Alloc(8 * (16 << 10))
				s.Contenders(8, func(j int, st *contend.Stopper) cpu.Program {
					return contend.Spin(st, base+uint64(j)*(16<<10))
				})
				per := uint64(benchBytes) / uint64(s.Cfg.PIM.NumCores()) &^ 63
				r := s.RunTransfer(s.TransferOp(core.DRAMToPIM, s.Cfg.PIM.NumCores(), per))
				secs = r.Duration.Seconds()
			}
			b.ReportMetric(secs*1e3, "xfer-ms")
		})
	}
}

// BenchmarkLoadCurveTail regenerates the loadcurve experiment's
// tail-latency trajectory at one contended point: an open-loop 16 GB/s
// Poisson stream (the first point past the Base knee) on Base and
// PIM-MMU, reporting the p99/p99.9 end-to-end latency each design
// delivers. BENCH_figs.json tracks these four tail metrics over time.
func BenchmarkLoadCurveTail(b *testing.B) {
	gen := trace.DefaultGenConfig()
	gen.FootprintLines = 1 << 16 // 4 MiB
	dcfg := trace.DefaultDriverConfig()
	dcfg.MeanGap = 4 * clock.Nanosecond // 16 GB/s offered
	dcfg.Duration = dcfg.MeanGap * 8192
	designs := []system.Design{system.Base, system.PIMMMU}
	var p99, p999 [2]float64
	for i := 0; i < b.N; i++ {
		res := sweep.MapN(len(designs), 0, func(j int) trace.LoadResult {
			s := system.MustNew(system.DefaultConfig(designs[j]))
			g := gen
			g.Base = s.Alloc(g.FootprintBytes(trace.PatternMixed))
			recs := trace.MustGenerate(trace.PatternMixed, g)
			r, err := s.RunLoad(recs, dcfg)
			if err != nil {
				panic(err)
			}
			return r
		})
		for j := range designs {
			p99[j] = res[j].Total.P99().Nanoseconds()
			p999[j] = res[j].Total.P999().Nanoseconds()
		}
	}
	b.ReportMetric(p99[0], "base-p99-ns")
	b.ReportMetric(p999[0], "base-p999-ns")
	b.ReportMetric(p99[1], "mmu-p99-ns")
	b.ReportMetric(p999[1], "mmu-p999-ns")
}

// BenchmarkHarnessQuickTable1 exercises the harness printer path.
func BenchmarkHarnessQuickTable1(b *testing.B) {
	table1, ok := harness.ByName("table1")
	if !ok {
		b.Fatal("table1 experiment not registered")
	}
	r := &harness.Runner{}
	for i := 0; i < b.N; i++ {
		r.Run(table1, io.Discard, harness.Quick)
	}
}
