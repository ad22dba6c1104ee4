// Every experiment's sweep: the jobs it plans and the one run that
// simulates each of them. Together with runner.go this is the only
// harness code allowed to import internal/system (cmd/pimmu-lint
// enforces the boundary) — renderers consume the pure result types in
// results.go and never see a machine.

package harness

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/clock"
	"repro/internal/contend"
	"repro/internal/core"
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

// transfer is one whole-device transfer: its direction and total size.
type transfer struct {
	dir   core.Direction
	bytes uint64
}

// table1: static configuration snapshot — nothing to simulate.

func table1Data() Table1Data {
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

func areaData() AreaData {
	cfg := core.DefaultConfig()
	return AreaData{
		DataKB:  cfg.DataBufBytes >> 10,
		AddrKB:  cfg.AddrBufBytes >> 10,
		MM2:     energy.PIMMMUAreaMM2(cfg.DataBufBytes, cfg.AddrBufBytes),
		DieFrac: energy.DieOverheadFraction(cfg.DataBufBytes, cfg.AddrBufBytes),
	}
}

// fig4: active-core-fraction and system-power time series during
// baseline DRAM<->PIM transfers. The two directions are independent
// machines, so they sweep in parallel.

func fig4Sweep(r *Runner, sc Scale) *Sweep[transfer, Fig4Section] {
	size := fig4Size(sc)
	sw := NewSweep(len(bothDirections), func(t transfer, s *system.System) Fig4Section {
		pt, stop := s.SamplePower(50 * clock.Microsecond)
		res := s.MeasureTransfer(t.dir, t.bytes).Res
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
	for _, dir := range bothDirections {
		sw.Add(r.job(system.Base, fmt.Sprintf("fig4 dir=%v bytes=%d window=50us", dir, size)),
			transfer{dir, size})
	}
	return sw
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

func fig6Sweep(r *Runner, sc Scale) *Sweep[transfer, Fig6Section] {
	size := fig6Size(sc)
	sw := NewSweep(len(fig6Points), func(t transfer, s *system.System) Fig6Section {
		s.MeasureTransfer(t.dir, t.bytes)
		var series []*stats.Series
		for _, c := range s.Mem.PIM.Stats().Channels {
			series = append(series, c.WriteSeries)
		}
		maxLen := 0
		for _, sr := range series {
			maxLen = max(maxLen, sr.Len())
		}
		return Fig6Section{Rows: windowBuckets(series, maxLen)}
	})
	for _, pt := range fig6Points {
		// The time series is bucketed on a 100 us stats window.
		cfg := system.DefaultConfig(pt.design)
		cfg.Mem.PIM.SeriesWindow = 100 * clock.Microsecond
		sw.Add(r.NewJob("harness/v1", cfg, fmt.Sprintf("fig6 bytes=%d", size)),
			transfer{core.DRAMToPIM, size})
	}
	return sw
}

// fig8: locality-centric vs MLP-centric DRAM bandwidth over sequential
// and strided read patterns. The four (pattern x mapping) machines
// sweep in parallel.

// fig8Grid flattens (pattern x design).
func fig8Grid() sweep.Grid {
	return sweep.NewGrid(len(fig8Patterns), len(baseVsMMU))
}

func fig8Sweep(r *Runner, sc Scale) *Sweep[xfer.StreamConfig, float64] {
	lines := fig8Lines(sc)
	sw := NewSweep(fig8Grid().Size(), func(cfg xfer.StreamConfig, s *system.System) float64 {
		return s.RunStream(cfg, lines).Throughput()
	})
	for _, pat := range fig8Patterns {
		cfg := xfer.DefaultStreamConfig()
		cfg.StrideLines = pat.stride
		op := fmt.Sprintf("fig8 lines=%d stream=%s", lines, resultcache.Canonical(cfg))
		for _, d := range baseVsMMU {
			sw.Add(r.job(d, op), cfg)
		}
	}
	return sw
}

// fig13a/fig13b: contender-sensitivity sweeps.

// contended is one Fig. 13 point: a DRAM->PIM transfer of size bytes
// beside n contenders (level < 0 selects compute-bound spinners,
// otherwise the memory intensity).
type contended struct {
	size     uint64
	n, level int
}

// op is the point's op string; the contender programs' footprints and
// loop shapes are code, covered by the key's code-version stamp.
func (c contended) op() string {
	return fmt.Sprintf("fig13 xfer bytes=%d contenders=%d level=%d", c.size, c.n, c.level)
}

// runContended measures the transfer's latency in seconds.
func runContended(c contended, s *system.System) float64 {
	var st *contend.Stopper
	if c.level < 0 {
		st = s.SpinContenders(c.n)
	} else {
		st = s.HogContenders(c.n, contend.Intensity(c.level))
	}
	res := s.MeasureTransfer(core.DRAMToPIM, c.size).Res
	st.Stop()
	return res.Duration.Seconds()
}

func fig13aGrid() sweep.Grid {
	return sweep.NewGrid(len(fig13aCounts), len(baseVsMMU))
}

func fig13aSweep(r *Runner, sc Scale) *Sweep[contended, float64] {
	size := fig13Size(sc)
	sw := NewSweep(fig13aGrid().Size(), runContended)
	for _, n := range fig13aCounts {
		c := contended{size, n, -1}
		op := c.op()
		for _, d := range baseVsMMU {
			sw.Add(r.job(d, op), c)
		}
	}
	return sw
}

// fig13bGrid flattens (row x design); row 0 is the uncontended
// reference, rows 1.. are the intensity levels.
func fig13bGrid() sweep.Grid {
	return sweep.NewGrid(1+len(contend.Levels()), len(baseVsMMU))
}

func fig13bSweep(r *Runner, sc Scale) *Sweep[contended, float64] {
	size := fig13Size(sc)
	rows := []contended{{size, 0, -1}}
	for _, level := range contend.Levels() {
		rows = append(rows, contended{size, 4, int(level)})
	}
	sw := NewSweep(fig13bGrid().Size(), runContended)
	for _, c := range rows {
		op := c.op()
		for _, d := range baseVsMMU {
			sw.Add(r.job(d, op), c)
		}
	}
	return sw
}

// fig14: DRAM->DRAM memcpy throughput across memory-system
// configurations.

func fig14Grid() sweep.Grid {
	return sweep.NewGrid(len(fig14Configs), len(baseVsMMU))
}

func fig14Sweep(r *Runner, sc Scale) *Sweep[uint64, float64] {
	size := fig14Size(sc)
	op := fmt.Sprintf("fig14 memcpy bytes=%d", size)
	sw := NewSweep(fig14Grid().Size(), func(bytes uint64, s *system.System) float64 {
		return s.RunMemcpy(bytes).Throughput()
	})
	for _, c := range fig14Configs {
		for _, d := range baseVsMMU {
			// The geometry override applies to the DRAM and PIM systems
			// alike.
			cfg := system.DefaultConfig(d)
			cfg.Mem.DRAM.Geometry.Channels = c.ch
			cfg.Mem.DRAM.Geometry.Ranks = c.ra
			cfg.Mem.PIM.Geometry.Channels = c.ch
			cfg.Mem.PIM.Geometry.Ranks = c.ra
			cfg.PIM.DRAM.Channels = c.ch
			cfg.PIM.DRAM.Ranks = c.ra
			sw.Add(r.NewJob("harness/v1", cfg, op), size)
		}
	}
	return sw
}

// fig15a/fig15b/headline/fig16: whole-device transfers — every
// (transfer x design) point is an independent machine, so each matrix
// fans out at once. All four plan one job per point through
// transferSweep and read their views off its record: headline's jobs
// are the Base and PIM-MMU half of fig15's, and fig16's are the
// distinct transfers its PrIM workloads need.

func fig15Grid(sc Scale) sweep.Grid {
	return sweep.NewGrid(len(bothDirections), len(fig15Sizes(sc)), len(system.Designs()))
}

func fig15Sweep(r *Runner, sc Scale) *Sweep[transfer, TransferRecord] {
	return transferSweep(r, fig15Transfers(sc), system.Designs())
}

func headlineGrid(sc Scale) sweep.Grid {
	return sweep.NewGrid(len(bothDirections), len(fig15Sizes(sc)), len(baseVsMMU))
}

func headlineSweep(r *Runner, sc Scale) *Sweep[transfer, TransferRecord] {
	return transferSweep(r, fig15Transfers(sc), baseVsMMU)
}

// transferSweep plans one job per (transfer x design) point, in grid
// order, under the op string "xfer dir=DIR bytes=SIZE", so experiments
// that need the same transfer share its key.
func transferSweep(r *Runner, ts []transfer, designs []system.Design) *Sweep[transfer, TransferRecord] {
	sw := NewSweep(len(ts)*len(designs), func(t transfer, s *system.System) TransferRecord {
		m := s.MeasureTransfer(t.dir, t.bytes)
		return TransferRecord{Bytes: m.Res.Bytes, Duration: m.Res.Duration, Energy: m.Energy}
	})
	for _, t := range ts {
		op := fmt.Sprintf("xfer dir=%v bytes=%d", t.dir, t.bytes)
		for _, d := range designs {
			sw.Add(r.job(d, op), t)
		}
	}
	return sw
}

// fig16: end-to-end PrIM evaluation — the per-workload time breakdown
// for the baseline and for PIM-MMU, a view over transfer records (see
// primPlan). `pimmu prim` reads the same view through PrimPhases.

func fig16Grid() sweep.Grid {
	return sweep.NewGrid(len(prim.Suite()), len(baseVsMMU))
}

func fig16Sweep(r *Runner, sc Scale) *Sweep[transfer, TransferRecord] {
	ts, _ := primPlan(prim.Suite(), fig16Scale(sc))
	return transferSweep(r, ts, baseVsMMU)
}

func fig16Phases(sc Scale, recs []TransferRecord) []prim.Phase {
	_, phases := primPlan(prim.Suite(), fig16Scale(sc))
	return phases(recs)
}

// PrimPhases measures the workloads ws sized at scale on Base and on
// PIM-MMU and returns their phases in fig16's (workload x design)
// order. It panics if scale is out of range for a workload (see
// prim.Workload.Scale).
func PrimPhases(r *Runner, ws []prim.Workload, scale float64) []prim.Phase {
	ts, phases := primPlan(ws, scale)
	return phases(transferSweep(r, ts, baseVsMMU).Compute(r))
}

// primPlan sizes ws at scale for the PIM cores of the Table I machine,
// which every design shares. ts is the distinct whole-device transfers
// the workloads need, by direction, then size. phases assembles each
// (workload x design) breakdown from transferSweep(ts, baseVsMMU)'s
// records: input and output are the durations of the fresh-machine
// DRAM->PIM and PIM->DRAM records, and the kernel is the analytic DPU
// time, so workloads that move the same volume share one record.
func primPlan(ws []prim.Workload, scale float64) (ts []transfer, phases func([]TransferRecord) []prim.Phase) {
	cores := system.DefaultConfig(system.Base).PIM.NumCores()
	sized := make([]prim.Scaled, len(ws))
	for i, wl := range ws {
		p, err := wl.Scale(scale, cores)
		if err != nil {
			panic(err)
		}
		sized[i] = p
		ts = append(ts, transfer{core.DRAMToPIM, p.InBytes * uint64(cores)},
			transfer{core.PIMToDRAM, p.OutBytes * uint64(cores)})
	}
	slices.SortFunc(ts, func(a, b transfer) int {
		return cmp.Or(cmp.Compare(a.dir, b.dir), cmp.Compare(a.bytes, b.bytes))
	})
	ts = slices.Compact(ts)
	return ts, func(recs []TransferRecord) []prim.Phase {
		g := sweep.NewGrid(len(ts), len(baseVsMMU))
		var out []prim.Phase
		for _, p := range sized {
			for d := range baseVsMMU {
				at := func(dir core.Direction, perCore uint64) clock.Picos {
					return recs[g.Index(slices.Index(ts, transfer{dir, perCore * uint64(cores)}), d)].Duration
				}
				out = append(out, prim.Phase{In: at(core.DRAMToPIM, p.InBytes), Kernel: p.Kernel,
					Out: at(core.PIMToDRAM, p.OutBytes)})
			}
		}
		return out
	}
}

// replay: synthetic application access patterns replayed through the
// memory port of a Base and a PIM-MMU machine at recorded inter-arrival
// times; the replayed runs report bandwidth and latency from the same
// channel/LLC counters as every figure. Every (workload x design)
// machine is independent, so the matrix fans out through one sweep.

func replayGrid() sweep.Grid {
	return sweep.NewGrid(len(replayWorkloads()), len(baseVsMMU))
}

// replayed is one replay job's workload: its pattern and region, and
// its fully tweaked generator config (Base is assigned on the machine).
type replayed struct {
	pattern trace.Pattern
	pim     bool
	gen     trace.GenConfig
}

// replayDriverConfig replays with enough memory-level parallelism to
// saturate a channel, cacheable DRAM traffic.
var replayDriverConfig = trace.DriverConfig{Process: trace.ProcessReplay, MaxInFlight: 64, Cacheable: true}

func replaySweep(r *Runner, sc Scale) *Sweep[replayed, ReplayPoint] {
	sw := NewSweep(replayGrid().Size(), func(p replayed, s *system.System) ReplayPoint {
		if p.pim {
			p.gen.Base = mem.PIMBase
		} else {
			p.gen.Base = s.Alloc(p.gen.FootprintBytes(p.pattern))
		}
		recs := trace.MustGenerate(p.pattern, p.gen)
		lr, err := s.RunLoad(recs, replayDriverConfig)
		if err != nil {
			panic(err)
		}
		return ReplayPoint{Thr: lr.Throughput(), Hist: lr.Service}
	})
	rcfg := resultcache.Canonical(replayDriverConfig)
	for _, wl := range replayWorkloads() {
		p := replayed{wl.pattern, wl.pim, replayWorkloadGenConfig(sc, wl)}
		// gen.Base is assigned inside the job, but it is itself a pure
		// function of the machine (the first allocation of a fresh system,
		// or the fixed PIM base), so pim + the generator config identify
		// the workload completely.
		op := fmt.Sprintf("replay pattern=%s pim=%v gen=%s rcfg=%s", p.pattern, p.pim,
			resultcache.Canonical(p.gen), rcfg)
		for _, d := range baseVsMMU {
			sw.Add(r.job(d, op), p)
		}
	}
	return sw
}

// loadcurve: the open-loop latency-vs-offered-load curve for Base vs
// PIM-MMU — a Poisson stream of line requests over the mixed workload
// is offered at each load level regardless of backpressure. Every
// (gap x design) machine is independent, so the matrix fans out through
// one sweep.

func loadCurveGrid(sc Scale) sweep.Grid {
	return sweep.NewGrid(len(loadGaps(sc)), len(baseVsMMU))
}

func loadCurveSweep(r *Runner, sc Scale) *Sweep[trace.DriverConfig, LoadPoint] {
	sw := NewSweep(loadCurveGrid(sc).Size(), func(dcfg trace.DriverConfig, s *system.System) LoadPoint {
		gcfg := replayGenConfig(sc)
		gcfg.Base = s.Alloc(gcfg.FootprintBytes(trace.PatternMixed))
		recs := trace.MustGenerate(trace.PatternMixed, gcfg)
		lr, err := s.RunLoad(recs, dcfg)
		if err != nil {
			panic(err)
		}
		return LoadPoint{Thr: lr.Throughput(), Total: lr.Total, Queue: lr.Queue}
	})
	// gcfg.Base is assigned inside the job but is a pure function of the
	// machine (its first allocation), so the generator and driver configs
	// identify the workload completely.
	gcfg := resultcache.Canonical(replayGenConfig(sc))
	for _, gap := range loadGaps(sc) {
		dcfg := loadDriverConfig(sc, gap)
		op := fmt.Sprintf("loadcurve pattern=%s gen=%s dcfg=%s", trace.PatternMixed,
			gcfg, resultcache.Canonical(dcfg))
		for _, d := range baseVsMMU {
			sw.Add(r.job(d, op), dcfg)
		}
	}
	return sw
}
