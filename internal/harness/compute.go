// Compute phase of every experiment: plan enumeration plus the jobs
// that actually simulate. Together with runner.go this is the only
// harness code allowed to import internal/system (cmd/pimmu-lint
// enforces the boundary) — renderers consume the pure result types in
// results.go and never see a machine.

package harness

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/prim"
	"repro/internal/resultcache"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// baseVsMMU is the baseline-vs-full-proposal design axis shared by the
// two-point comparisons.
var baseVsMMU = []system.Design{system.Base, system.PIMMMU}

func areaMM2(cfg core.Config) float64 {
	return energy.PIMMMUAreaMM2(cfg.DataBufBytes, cfg.AddrBufBytes)
}

func dieFrac(cfg core.Config) float64 {
	return energy.DieOverheadFraction(cfg.DataBufBytes, cfg.AddrBufBytes)
}

// table1: static configuration snapshot — nothing to simulate.

func table1Plan(_ *Runner, _ Scale) Plan {
	return Plan{Experiment: "table1"}
}

func table1Compute(_ *Runner, _ Scale) Table1Data {
	cfg := system.DefaultConfig(system.PIMMMU)
	cp := cfg.CPU
	dg := cfg.Mem.DRAM.Geometry
	pg := cfg.Mem.PIM.Geometry
	return Table1Data{
		CPUCores:     cp.Cores,
		CPUClockGHz:  float64(cp.Clock) / 1e9,
		LoadBuffers:  cp.LoadBuffers,
		StoreBuffers: cp.StoreBuffers,
		Quantum:      cp.Quantum,
		LLCMB:        cfg.Mem.LLC.SizeBytes >> 20,
		LLCWays:      cfg.Mem.LLC.Ways,
		QueueDepth:   cfg.Mem.DRAM.QueueDepth,
		DrainHi:      cfg.Mem.DRAM.WriteDrainHi,
		DrainLo:      cfg.Mem.DRAM.WriteDrainLo,
		DRAMChannels: dg.Channels,
		DRAMRanks:    dg.Ranks,
		DRAMGiB:      float64(dg.TotalBytes()) / (1 << 30),
		PIMChannels:  pg.Channels,
		PIMRanks:     pg.Ranks,
		PIMCores:     cfg.PIM.NumCores(),
		MRAMMiB:      cfg.PIM.MRAMBytes() >> 20,
		DCEClockGHz:  float64(cfg.DCE.Clock) / 1e9,
		DataBufKB:    cfg.DCE.DataBufBytes >> 10,
		AddrBufKB:    cfg.DCE.AddrBufBytes >> 10,
	}
}

// area: static Section VI-C overhead analysis.

func areaPlan(_ *Runner, _ Scale) Plan {
	return Plan{Experiment: "area"}
}

func areaCompute(_ *Runner, _ Scale) AreaData {
	cfg := core.DefaultConfig()
	return AreaData{
		DataKB:  cfg.DataBufBytes >> 10,
		AddrKB:  cfg.AddrBufBytes >> 10,
		MM2:     areaMM2(cfg),
		DieFrac: dieFrac(cfg),
	}
}

// fig4: active-core-fraction and system-power time series during
// baseline DRAM<->PIM transfers. The two directions are independent
// machines, so they sweep in parallel.

func fig4Plan(r *Runner, sc Scale) Plan {
	size := fig4Size(sc)
	jobs := make([]Job, len(bothDirections))
	for i, dir := range bothDirections {
		jobs[i] = r.job(system.Base,
			fmt.Sprintf("fig4 dir=%v bytes=%d window=50us", dir, size))
	}
	return Plan{Experiment: "fig4", Jobs: jobs}
}

func fig4Compute(r *Runner, sc Scale) []Fig4Section {
	size := fig4Size(sc)
	return ComputePlan(r, fig4Plan(r, sc), func(i int, j Job) Fig4Section {
		s := system.MustNew(j.Config)
		pt, stop := s.SamplePower(50 * clock.Microsecond)
		res := r.runTransfer(s, bothDirections[i], size)
		stop()
		sec := Fig4Section{Thr: res.Throughput()}
		n := pt.Watts.Len()
		step := n/12 + 1
		for k := 0; k < n; k += step {
			sec.Rows = append(sec.Rows, Fig4Row{
				T:          k * 50,
				ActiveFrac: pt.ActiveFrac.Bucket(k),
				Watts:      pt.Watts.Bucket(k),
			})
		}
		return sec
	})
}

// fig6: per-channel write-throughput breakdown — (a) the baseline's
// coarse-grained software DRAM->PIM copy herds one channel at a time;
// (b) a hardware-paced fine-grained copy (the DCE under HetMap) spreads
// evenly.

// fig6Points is the fig6 design axis; render uses the labels only.
var fig6Points = []struct {
	design system.Design
	label  string
}{
	{system.Base, "a: software coarse-grained DRAM->PIM — one channel at a time"},
	{system.PIMMMU, "b: hardware fine-grained — even across channels"},
}

// fig6Config is one fig6 point's machine config: the default design
// config with the 100 us stats window the time series is bucketed on.
func fig6Config(r *Runner, i int) system.Config {
	cfg := r.Config(fig6Points[i].design)
	cfg.Mem.PIM.SeriesWindow = 100 * clock.Microsecond
	return cfg
}

func fig6Plan(r *Runner, sc Scale) Plan {
	size := fig6Size(sc)
	jobs := make([]Job, len(fig6Points))
	for i := range fig6Points {
		jobs[i] = r.NewJob("harness/v1", fig6Config(r, i),
			fmt.Sprintf("fig6 bytes=%d label=%q", size, fig6Points[i].label))
	}
	return Plan{Experiment: "fig6", Jobs: jobs}
}

func fig6Compute(r *Runner, sc Scale) []Fig6Section {
	size := fig6Size(sc)
	return ComputePlan(r, fig6Plan(r, sc), func(i int, j Job) Fig6Section {
		s := system.MustNew(j.Config)
		r.runTransfer(s, core.DRAMToPIM, size)
		var series []*stats.Series
		for _, c := range s.Mem.PIM.Stats().Channels {
			series = append(series, c.WriteSeries)
		}
		// Size rows from MaxIndex, not Len: a channel served late in a
		// coarse-grained copy has no window-0 sample, so its buckets live
		// beyond the Len() prefix (Bucket still reaches them).
		maxLen := 0
		for _, sr := range series {
			if n := int(sr.MaxIndex()) + 1; n > maxLen {
				maxLen = n
			}
		}
		return Fig6Section{Rows: windowBuckets(series, maxLen)}
	})
}

// fig8: locality-centric vs MLP-centric DRAM bandwidth over sequential
// and strided read patterns. The four (pattern x mapping) machines
// sweep in parallel.

// fig8Grid flattens (pattern x design).
func fig8Grid() sweep.Grid {
	return sweep.NewGrid(len(fig8Patterns), len(baseVsMMU))
}

// fig8Stream is point i's stream config.
func fig8Stream(g sweep.Grid, i int) xfer.StreamConfig {
	cfg := xfer.DefaultStreamConfig()
	cfg.StrideLines = fig8Patterns[g.Coord(i, 0)].stride
	return cfg
}

func fig8Plan(r *Runner, sc Scale) Plan {
	lines := fig8Lines(sc)
	g := fig8Grid()
	jobs := make([]Job, g.Size())
	for i := range jobs {
		jobs[i] = r.job(baseVsMMU[g.Coord(i, 1)],
			fmt.Sprintf("fig8 lines=%d stream=%s", lines, resultcache.Canonical(fig8Stream(g, i))))
	}
	return Plan{Experiment: "fig8", Jobs: jobs}
}

func fig8Compute(r *Runner, sc Scale) []float64 {
	lines := fig8Lines(sc)
	g := fig8Grid()
	return ComputePlan(r, fig8Plan(r, sc), func(i int, j Job) float64 {
		s := system.MustNew(j.Config)
		cfg := fig8Stream(g, i)
		base := s.Alloc(lines * uint64(cfg.StrideLines) * uint64(cfg.Threads) * 64)
		var res xfer.Result
		done := false
		xfer.RunStream(s.CPU, base, lines, cfg, func(r xfer.Result) { res = r; done = true })
		s.Eng.RunWhile(func() bool { return !done })
		return res.Throughput()
	})
}

// fig13a/fig13b: contender-sensitivity sweeps.

// contendedOp is the op string of one contendedLatency measurement; the
// contender programs' footprints and loop shapes are code, covered by
// the key's code-version stamp.
func contendedOp(size uint64, n, level int) string {
	return fmt.Sprintf("fig13 xfer bytes=%d contenders=%d level=%d", size, n, level)
}

// contendedLatency measures one DRAM->PIM transfer's latency on j's
// machine with n contenders (level < 0 selects compute-bound spinners,
// otherwise the memory intensity).
func (r *Runner) contendedLatency(j Job, size uint64, n, level int) float64 {
	s := system.MustNew(j.Config)
	var st *contend.Stopper
	if n > 0 {
		if level < 0 {
			base := s.Alloc(uint64(n) * (16 << 10))
			st = s.Contenders(n, func(i int, st *contend.Stopper) cpu.Program {
				return contend.Spin(st, base+uint64(i)*(16<<10))
			})
		} else {
			const footprint = 64 << 20
			base := s.Alloc(uint64(n) * footprint)
			st = s.Contenders(n, func(i int, st *contend.Stopper) cpu.Program {
				return contend.MemoryHog(st, base+uint64(i)*footprint, footprint, contend.Intensity(level))
			})
		}
	}
	res := r.runTransfer(s, core.DRAMToPIM, size)
	if st != nil {
		st.Stop()
	}
	return res.Duration.Seconds()
}

func fig13aGrid() sweep.Grid {
	return sweep.NewGrid(len(fig13aCounts), len(baseVsMMU))
}

func fig13aPlan(r *Runner, sc Scale) Plan {
	size := fig13Size(sc)
	g := fig13aGrid()
	jobs := make([]Job, g.Size())
	for i := range jobs {
		jobs[i] = r.job(baseVsMMU[g.Coord(i, 1)],
			contendedOp(size, fig13aCounts[g.Coord(i, 0)], -1))
	}
	return Plan{Experiment: "fig13a", Jobs: jobs}
}

func fig13aCompute(r *Runner, sc Scale) []float64 {
	size := fig13Size(sc)
	g := fig13aGrid()
	return ComputePlan(r, fig13aPlan(r, sc), func(i int, j Job) float64 {
		return r.contendedLatency(j, size, fig13aCounts[g.Coord(i, 0)], -1)
	})
}

// fig13bGrid flattens (row x design); row 0 is the uncontended
// reference, rows 1.. are the intensity levels.
func fig13bGrid() sweep.Grid {
	return sweep.NewGrid(1+len(contend.Levels()), len(baseVsMMU))
}

// fig13bArgs recovers point i's contender count and intensity level.
func fig13bArgs(g sweep.Grid, i int) (n, level int) {
	if row := g.Coord(i, 0); row > 0 {
		return 4, int(contend.Levels()[row-1])
	}
	return 0, -1
}

func fig13bPlan(r *Runner, sc Scale) Plan {
	size := fig13Size(sc)
	g := fig13bGrid()
	jobs := make([]Job, g.Size())
	for i := range jobs {
		n, level := fig13bArgs(g, i)
		jobs[i] = r.job(baseVsMMU[g.Coord(i, 1)], contendedOp(size, n, level))
	}
	return Plan{Experiment: "fig13b", Jobs: jobs}
}

func fig13bCompute(r *Runner, sc Scale) []float64 {
	size := fig13Size(sc)
	g := fig13bGrid()
	return ComputePlan(r, fig13bPlan(r, sc), func(i int, j Job) float64 {
		n, level := fig13bArgs(g, i)
		return r.contendedLatency(j, size, n, level)
	})
}

// fig14: DRAM->DRAM memcpy throughput across memory-system
// configurations.

func fig14Grid() sweep.Grid {
	return sweep.NewGrid(len(fig14Configs), len(baseVsMMU))
}

// fig14Config is point i's machine config with the geometry override
// applied to the DRAM and PIM systems alike.
func fig14Config(r *Runner, g sweep.Grid, i int) system.Config {
	c := fig14Configs[g.Coord(i, 0)]
	cfg := r.Config(baseVsMMU[g.Coord(i, 1)])
	cfg.Mem.DRAM.Geometry.Channels = c.ch
	cfg.Mem.DRAM.Geometry.Ranks = c.ra
	cfg.Mem.PIM.Geometry.Channels = c.ch
	cfg.Mem.PIM.Geometry.Ranks = c.ra
	cfg.PIM.DRAM.Channels = c.ch
	cfg.PIM.DRAM.Ranks = c.ra
	return cfg
}

func fig14Plan(r *Runner, sc Scale) Plan {
	size := fig14Size(sc)
	g := fig14Grid()
	jobs := make([]Job, g.Size())
	for i := range jobs {
		jobs[i] = r.NewJob("harness/v1", fig14Config(r, g, i),
			fmt.Sprintf("fig14 memcpy bytes=%d", size))
	}
	return Plan{Experiment: "fig14", Jobs: jobs}
}

func fig14Compute(r *Runner, sc Scale) []float64 {
	size := fig14Size(sc)
	return ComputePlan(r, fig14Plan(r, sc), func(i int, j Job) float64 {
		s := system.MustNew(j.Config)
		return s.RunMemcpy(size).Throughput()
	})
}

// fig15a/fig15b: the ablation sweeps — every (direction x size x
// design) point is an independent machine, so the whole ablation fans
// out at once.

func fig15Grid(sc Scale) sweep.Grid {
	return sweep.NewGrid(len(bothDirections), len(fig15Sizes(sc)), len(system.Designs()))
}

func fig15aPlan(r *Runner, sc Scale) Plan {
	sizes := fig15Sizes(sc)
	designs := system.Designs()
	g := fig15Grid(sc)
	jobs := make([]Job, g.Size())
	for i := range jobs {
		jobs[i] = r.job(designs[g.Coord(i, 2)],
			fmt.Sprintf("fig15a xfer dir=%v bytes=%d", bothDirections[g.Coord(i, 0)], sizes[g.Coord(i, 1)]))
	}
	return Plan{Experiment: "fig15a", Jobs: jobs}
}

func fig15aCompute(r *Runner, sc Scale) []float64 {
	sizes := fig15Sizes(sc)
	g := fig15Grid(sc)
	return ComputePlan(r, fig15aPlan(r, sc), func(i int, j Job) float64 {
		s := system.MustNew(j.Config)
		return r.runTransfer(s, bothDirections[g.Coord(i, 0)], sizes[g.Coord(i, 1)]).Throughput()
	})
}

func fig15bPlan(r *Runner, sc Scale) Plan {
	sizes := fig15Sizes(sc)
	designs := system.Designs()
	g := fig15Grid(sc)
	jobs := make([]Job, g.Size())
	for i := range jobs {
		jobs[i] = r.job(designs[g.Coord(i, 2)],
			fmt.Sprintf("fig15b energy dir=%v bytes=%d", bothDirections[g.Coord(i, 0)], sizes[g.Coord(i, 1)]))
	}
	return Plan{Experiment: "fig15b", Jobs: jobs}
}

func fig15bCompute(r *Runner, sc Scale) []Fig15bPoint {
	sizes := fig15Sizes(sc)
	g := fig15Grid(sc)
	return ComputePlan(r, fig15bPlan(r, sc), func(i int, j Job) Fig15bPoint {
		s := system.MustNew(j.Config)
		before := s.Activity()
		r.runTransfer(s, bothDirections[g.Coord(i, 0)], sizes[g.Coord(i, 1)])
		b := s.EnergyOver(before, s.Activity())
		return Fig15bPoint{Total: b.Total(), StaticFrac: b.Static() / b.Total()}
	})
}

// fig16: end-to-end PrIM evaluation — the per-workload time breakdown
// for the baseline and for PIM-MMU. Every (workload x design) run is an
// independent machine, so the whole suite fans out through one sweep.

func fig16Grid() sweep.Grid {
	return sweep.NewGrid(len(prim.Suite()), len(baseVsMMU))
}

func fig16Plan(r *Runner, sc Scale) Plan {
	scale := fig16Scale(sc)
	suite := prim.Suite()
	g := fig16Grid()
	jobs := make([]Job, g.Size())
	for i := range jobs {
		// The workload's kernel shape and sizing live in code (prim.Suite),
		// covered by the key's code-version stamp; the name and scale pin
		// the point within the suite.
		jobs[i] = r.job(baseVsMMU[g.Coord(i, 1)],
			fmt.Sprintf("fig16 prim workload=%q scale=%g", suite[g.Coord(i, 0)].Name, scale))
	}
	return Plan{Experiment: "fig16", Jobs: jobs}
}

func fig16Compute(r *Runner, sc Scale) []prim.Phase {
	scale := fig16Scale(sc)
	suite := prim.Suite()
	g := fig16Grid()
	return ComputePlan(r, fig16Plan(r, sc), func(i int, j Job) prim.Phase {
		s := system.MustNew(j.Config)
		return prim.RunEndToEnd(s, suite[g.Coord(i, 0)], scale)
	})
}

// headline: the abstract's summary numbers — average/max transfer
// speedup and energy-efficiency gain of PIM-MMU over Base. Every
// (direction x size x design) machine is independent, so the whole
// matrix fans out through one sweep.

func headlineGrid(sc Scale) sweep.Grid {
	return sweep.NewGrid(len(bothDirections), len(headlineSizes(sc)), len(baseVsMMU))
}

func headlinePlan(r *Runner, sc Scale) Plan {
	sizes := headlineSizes(sc)
	g := headlineGrid(sc)
	jobs := make([]Job, g.Size())
	for i := range jobs {
		jobs[i] = r.job(baseVsMMU[g.Coord(i, 2)],
			fmt.Sprintf("headline dir=%v bytes=%d", bothDirections[g.Coord(i, 0)], sizes[g.Coord(i, 1)]))
	}
	return Plan{Experiment: "headline", Jobs: jobs}
}

func headlineCompute(r *Runner, sc Scale) []HeadlinePoint {
	sizes := headlineSizes(sc)
	g := headlineGrid(sc)
	return ComputePlan(r, headlinePlan(r, sc), func(i int, j Job) HeadlinePoint {
		s := system.MustNew(j.Config)
		a0 := s.Activity()
		res := r.runTransfer(s, bothDirections[g.Coord(i, 0)], sizes[g.Coord(i, 1)])
		e := s.EnergyOver(a0, s.Activity())
		return HeadlinePoint{Thr: res.Throughput(), Eff: float64(res.Bytes) / e.Total()}
	})
}

// replay: synthetic application access patterns replayed through the
// memory port of a Base and a PIM-MMU machine at recorded inter-arrival
// times; the replayed runs report bandwidth and latency from the same
// channel/LLC counters as every figure. Every (workload x design)
// machine is independent, so the matrix fans out through one sweep.

func replayGrid() sweep.Grid {
	return sweep.NewGrid(len(replayWorkloads()), len(baseVsMMU))
}

func replayPlan(r *Runner, sc Scale) Plan {
	workloads := replayWorkloads()
	g := replayGrid()
	jobs := make([]Job, g.Size())
	for i := range jobs {
		wl := workloads[g.Coord(i, 0)]
		cfg := replayWorkloadGenConfig(sc, wl)
		// cfg.Base is assigned inside the job, but it is itself a pure
		// function of the machine (the first allocation of a fresh system,
		// or the fixed PIM base), so pim + the generator config identify
		// the workload completely.
		jobs[i] = r.job(baseVsMMU[g.Coord(i, 1)],
			fmt.Sprintf("replay pattern=%s pim=%v gen=%s rcfg=%s", wl.pattern, wl.pim,
				resultcache.Canonical(cfg), resultcache.Canonical(trace.DefaultReplayConfig())))
	}
	return Plan{Experiment: "replay", Jobs: jobs}
}

func replayCompute(r *Runner, sc Scale) []ReplayPoint {
	workloads := replayWorkloads()
	g := replayGrid()
	return ComputePlan(r, replayPlan(r, sc), func(i int, j Job) ReplayPoint {
		wl := workloads[g.Coord(i, 0)]
		s := system.MustNew(j.Config)
		cfg := replayWorkloadGenConfig(sc, wl)
		if wl.pim {
			cfg.Base = mem.PIMBase
		} else {
			cfg.Base = s.Alloc(cfg.FootprintBytes(wl.pattern))
		}
		recs := trace.MustGenerate(wl.pattern, cfg)
		rr, err := s.RunReplay(recs, trace.DefaultReplayConfig())
		if err != nil {
			panic(err)
		}
		return ReplayPoint{Thr: rr.Throughput(), Hist: rr.Latency}
	})
}

// loadcurve: the open-loop latency-vs-offered-load curve for Base vs
// PIM-MMU — a Poisson stream of line requests over the mixed workload
// is offered at each load level regardless of backpressure. Every
// (gap x design) machine is independent, so the matrix fans out through
// one sweep.

func loadCurveGrid(sc Scale) sweep.Grid {
	return sweep.NewGrid(len(loadGaps(sc)), len(baseVsMMU))
}

func loadCurvePlan(r *Runner, sc Scale) Plan {
	gaps := loadGaps(sc)
	g := loadCurveGrid(sc)
	jobs := make([]Job, g.Size())
	for i := range jobs {
		gcfg := replayGenConfig(sc)
		dcfg := loadDriverConfig(sc, gaps[g.Coord(i, 0)])
		// gcfg.Base is assigned inside the job but is a pure function of
		// the machine (its first allocation), so the generator and driver
		// configs identify the workload completely.
		jobs[i] = r.job(baseVsMMU[g.Coord(i, 1)],
			fmt.Sprintf("loadcurve pattern=%s gen=%s dcfg=%s", trace.PatternMixed,
				resultcache.Canonical(gcfg), resultcache.Canonical(dcfg)))
	}
	return Plan{Experiment: "loadcurve", Jobs: jobs}
}

func loadCurveCompute(r *Runner, sc Scale) []LoadPoint {
	gaps := loadGaps(sc)
	g := loadCurveGrid(sc)
	return ComputePlan(r, loadCurvePlan(r, sc), func(i int, j Job) LoadPoint {
		s := system.MustNew(j.Config)
		gcfg := replayGenConfig(sc)
		gcfg.Base = s.Alloc(gcfg.FootprintBytes(trace.PatternMixed))
		recs := trace.MustGenerate(trace.PatternMixed, gcfg)
		lr, err := s.RunLoad(recs, loadDriverConfig(sc, gaps[g.Coord(i, 0)]))
		if err != nil {
			panic(err)
		}
		return LoadPoint{Thr: lr.Throughput(), Total: lr.Total, Queue: lr.Queue}
	})
}
