// Package system assembles the full simulated machine of Table I — host
// CPU, LLC, DRAM and PIM device sets behind the HetMap, the PIM device,
// and the PIM-MMU engine — and provides the experiment-level operations
// the evaluation and the public API are built from: software (baseline)
// transfers, DCE transfers, memcpy and read streams, co-located
// contenders, and energy/power accounting.
package system

import (
	"fmt"
	"strconv"

	"repro/internal/clock"
	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/pim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// Design selects which transfer machinery a System uses, mirroring the
// paper's ablation design points (Fig. 15).
type Design int

const (
	// Base is the unmodified PIM system: software multi-threaded
	// transfers, locality-centric mapping everywhere.
	Base Design = iota
	// BaseD adds the DCE as a conventional DMA engine: offloaded copies,
	// but sequential descriptors and no HetMap ("Base+D").
	BaseD
	// BaseDH adds HetMap's heterogeneous mapping ("Base+D+H").
	BaseDH
	// PIMMMU is the full proposal: DCE + HetMap + PIM-MS ("Base+D+H+P").
	PIMMMU
)

func (d Design) String() string {
	switch d {
	case Base:
		return "Base"
	case BaseD:
		return "Base+D"
	case BaseDH:
		return "Base+D+H"
	case PIMMMU:
		return "Base+D+H+P"
	}
	return "unknown"
}

// Designs lists the ablation order of Fig. 15.
func Designs() []Design { return []Design{Base, BaseD, BaseDH, PIMMMU} }

// ParseDesign parses the CLI spelling of a design point (the lower-case
// forms of String: "base", "base+d", "base+d+h", "pim-mmu").
func ParseDesign(s string) (Design, error) {
	switch s {
	case "base":
		return Base, nil
	case "base+d":
		return BaseD, nil
	case "base+d+h":
		return BaseDH, nil
	case "pim-mmu":
		return PIMMMU, nil
	}
	return 0, fmt.Errorf("system: unknown design %q (want base, base+d, base+d+h, or pim-mmu)", s)
}

// UsesDCE reports whether the design offloads transfers to the engine.
func (d Design) UsesDCE() bool { return d != Base }

// Config assembles a full machine.
type Config struct {
	Mem      memsys.Config
	CPU      cpu.Config
	PIM      pim.Geometry
	DCE      core.Config
	Energy   energy.Params
	Baseline xfer.BaselineConfig
	Memcpy   xfer.MemcpyConfig
	Design   Design
	// Shards selects the event-engine class. 0 (the default) runs the
	// machine on the plain engine; any other value, Auto included, on the
	// sharded engine (one event lane per DDR4 channel plus the DCE's; see
	// sim.NewSharded). The two classes are separate event orders: they
	// can break same-instant ties differently, so results can differ
	// between them (fig8, fig14, a Fig. 13 contended transfer).
	// Within a class the value is irrelevant to results. Harness jobs,
	// the CLIs and the server always build the plain engine.
	Shards int
	// CoreLanes is accepted for compatibility and ignored.
	CoreLanes int
}

// Auto is the "auto" flag spelling of Config.Shards; it selects the
// sharded engine.
const Auto = -1

// ParseLaneFlag parses one Config.Shards value in flag syntax: "auto"
// selects Auto; anything else must be an integer count.
func ParseLaneFlag(s string) (int, error) {
	if s == "auto" {
		return Auto, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("system: lane flag %q (want a count or \"auto\")", s)
	}
	return n, nil
}

// DefaultConfig is the Table I machine with the chosen design point.
// Mapping and DCE settings are derived from the design.
func DefaultConfig(d Design) Config {
	cfg := Config{
		Mem:      memsys.DefaultConfig(),
		CPU:      cpu.DefaultConfig(),
		PIM:      pim.DefaultGeometry(),
		DCE:      core.DefaultConfig(),
		Energy:   energy.DefaultParams(),
		Baseline: xfer.DefaultBaselineConfig(),
		Memcpy:   xfer.DefaultMemcpyConfig(),
		Design:   d,
	}
	switch d {
	case Base:
		cfg.Mem.Mapping = memsys.MapLocalityBoth
	case BaseD:
		cfg.Mem.Mapping = memsys.MapLocalityBoth
		cfg.DCE.UsePIMMS = false
	case BaseDH:
		cfg.Mem.Mapping = memsys.MapHetMap
		cfg.DCE.UsePIMMS = false
	case PIMMMU:
		cfg.Mem.Mapping = memsys.MapHetMap
		cfg.DCE.UsePIMMS = true
	}
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Shards < Auto {
		return fmt.Errorf("system: invalid shard count %d (0 = plain engine, >= 1 or Auto = sharded)", c.Shards)
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.PIM.Validate(); err != nil {
		return err
	}
	if c.PIM.DRAM != c.Mem.PIM.Geometry {
		return fmt.Errorf("system: PIM device geometry %+v disagrees with the PIM channels' %+v",
			c.PIM.DRAM, c.Mem.PIM.Geometry)
	}
	if err := c.DCE.Validate(); err != nil {
		return err
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	if err := c.Baseline.Validate(); err != nil {
		return err
	}
	return c.Memcpy.Validate()
}

// System is the assembled machine.
type System struct {
	Cfg    Config
	Eng    *sim.Engine
	Mem    *memsys.System
	CPU    *cpu.CPU
	DCE    *core.Engine
	Device *pim.Device

	allocNext uint64
}

// New builds a machine; configuration errors are returned, not panicked,
// because configs may come from CLI flags.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Lane ids are part of the sharded engine's event order: the memory
	// system claims dram:0.. then pim:0.., and the DCE claims dce last.
	eng := sim.New()
	if cfg.Shards != 0 {
		eng = sim.NewSharded()
	}
	ms, err := memsys.New(eng, cfg.Mem)
	if err != nil {
		return nil, err
	}
	c := cpu.New(eng, cfg.CPU, ms)
	dce, err := core.New(eng, ms, cfg.PIM, cfg.DCE)
	if err != nil {
		return nil, err
	}
	return &System{
		Cfg:    cfg,
		Eng:    eng,
		Mem:    ms,
		CPU:    c,
		DCE:    dce,
		Device: pim.NewDevice(cfg.PIM),
	}, nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Alloc reserves a line-aligned buffer in the DRAM region (a bump
// allocator standing in for malloc; the OS page scatter below it models
// physical placement). It panics when the region is exhausted.
func (s *System) Alloc(bytes uint64) uint64 {
	aligned := (bytes + mem.LineBytes - 1) &^ uint64(mem.LineBytes-1)
	base := s.allocNext
	if base+aligned > s.Cfg.Mem.DRAM.Geometry.TotalBytes() {
		panic(fmt.Sprintf("system: DRAM region exhausted allocating %d bytes", bytes))
	}
	s.allocNext += aligned
	return base
}

// TransferOp builds the pim_mmu_op for moving bytesPerCore to/from each
// of the first n cores, sourcing from a freshly allocated contiguous
// buffer (the Fig. 10 pattern).
func (s *System) TransferOp(dir core.Direction, n int, bytesPerCore uint64) core.Op {
	base := s.Alloc(uint64(n) * bytesPerCore)
	op := core.Op{Dir: dir, BytesPerCore: bytesPerCore}
	for i := 0; i < n; i++ {
		op.Cores = append(op.Cores, i)
		op.DRAMAddrs = append(op.DRAMAddrs, base+uint64(i)*bytesPerCore)
	}
	return op
}

// XferResult is the design-independent result of one transfer.
type XferResult struct {
	Design   Design
	Dir      core.Direction
	Bytes    uint64
	Duration clock.Picos
}

// Throughput is bytes per second.
func (r XferResult) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Duration.Seconds()
}

// RunTransfer executes op on the configured design's machinery to
// completion and returns its result.
func (s *System) RunTransfer(op core.Op) XferResult {
	res := s.measure(op.Bytes(), func(onDone func()) {
		if s.Cfg.Design.UsesDCE() {
			s.DCE.Transfer(op, onDone)
		} else {
			xfer.RunBaseline(s.CPU, s.Cfg.PIM, op, s.Cfg.Baseline, onDone)
		}
	})
	res.Dir = op.Dir
	return res
}

// RunMemcpy executes a DRAM->DRAM copy between two fresh buffers.
func (s *System) RunMemcpy(bytes uint64) XferResult {
	src := s.Alloc(bytes)
	dst := s.Alloc(bytes)
	return s.measure(bytes, func(onDone func()) {
		xfer.RunMemcpy(s.CPU, src, dst, bytes, s.Cfg.Memcpy, onDone)
	})
}

// RunStream executes the Fig. 8 read stream over a fresh buffer, each of
// cfg.Threads threads loading linesPerThread lines.
func (s *System) RunStream(cfg xfer.StreamConfig, linesPerThread uint64) XferResult {
	lines := uint64(cfg.Threads) * linesPerThread
	base := s.Alloc(lines * uint64(cfg.StrideLines) * mem.LineBytes)
	return s.measure(lines*mem.LineBytes, func(onDone func()) {
		xfer.RunStream(s.CPU, base, linesPerThread, cfg, onDone)
	})
}

// measure runs a software or DCE copy that start launches to completion
// and reports bytes over its span on the simulated clock.
func (s *System) measure(bytes uint64, start func(onDone func())) XferResult {
	begin := s.Eng.Now()
	end := runToDone(s, func(done func(clock.Picos)) {
		start(func() { done(s.Eng.Now()) })
	})
	return XferResult{Design: s.Cfg.Design, Bytes: bytes, Duration: end - begin}
}

// RecordTrace attaches a fresh trace recorder at the memory-port
// boundary: every subsequently accepted request (CPU, DCE and contender
// traffic alike) is captured as one trace record. StopTrace detaches
// it; the recorder's Records are then ready for trace.Encode or a
// trace.ProcessReplay RunLoad.
func (s *System) RecordTrace() *trace.Recorder {
	rec := trace.NewRecorder()
	s.Mem.SetTap(rec.Tap)
	return rec
}

// StopTrace detaches any attached trace recorder.
func (s *System) StopTrace() { s.Mem.SetTap(nil) }

// RunLoad injects recs through the memory port to completion and
// returns the result. Under trace.ProcessReplay each record falls due at
// its own TSC; under an open-loop process arrivals accrue on the
// simulated clock at the configured rate regardless of memory-system
// backpressure, so the result's queue/service/total split measures what
// a latency SLO would see at that offered load. Injected runs report
// through the same channel/LLC statistics as every other workload.
func (s *System) RunLoad(recs []trace.Record, cfg trace.DriverConfig) (trace.LoadResult, error) {
	d, err := trace.NewDriver(s.Eng, s.Mem, recs, cfg)
	if err != nil {
		return trace.LoadResult{}, err
	}
	return runToDone(s, d.Start), nil
}

// runToDone is the one run-to-completion path: it starts a job (a trace
// injection or a copy), runs the engine until the job's completion
// callback fires, drains, and returns the reported result.
func runToDone[R any](s *System, start func(onDone func(R))) R {
	var out R
	done := false
	start(func(r R) { out = r; done = true })
	s.Eng.RunWhile(func() bool { return !done })
	s.drain()
	return out
}

// drain runs remaining completion events (posted writes, refreshes in
// flight) without advancing past quiescence. With live threads (for
// example contenders) the memory system never goes idle, so draining is
// skipped — their traffic keeps flowing on the next run anyway.
func (s *System) drain() {
	if s.CPU.Runnable() > 0 {
		return
	}
	s.Eng.RunWhile(func() bool { return !s.Mem.Idle() })
}

// Contenders launches n co-located contender threads built by mk and
// returns their stopper. The caller stops them when the measured phase
// completes; stopped threads exit at their next iteration boundary.
func (s *System) Contenders(n int, mk func(i int, st *contend.Stopper) cpu.Program) *contend.Stopper {
	st := &contend.Stopper{}
	for i := 0; i < n; i++ {
		s.CPU.Spawn(fmt.Sprintf("contender-%d", i), mk(i, st), nil)
	}
	return st
}

// SpinContenders launches n compute-bound contenders (Fig. 13a), each
// spinning over its own 16 KiB working set.
func (s *System) SpinContenders(n int) *contend.Stopper {
	const wset = 16 << 10
	base := s.Alloc(uint64(n) * wset)
	return s.Contenders(n, func(i int, st *contend.Stopper) cpu.Program {
		return contend.Spin(st, base+uint64(i)*wset)
	})
}

// HogContenders launches n memory-bound contenders at the given intensity
// (Fig. 13b), each streaming over its own 64 MiB footprint.
func (s *System) HogContenders(n int, level contend.Intensity) *contend.Stopper {
	const footprint = 64 << 20
	base := s.Alloc(uint64(n) * footprint)
	return s.Contenders(n, func(i int, st *contend.Stopper) cpu.Program {
		return contend.MemoryHog(st, base+uint64(i)*footprint, footprint, level)
	})
}

// Activity snapshots cumulative counters for energy accounting.
func (s *System) Activity() energy.Activity {
	a := energy.Activity{
		Wall:  s.Eng.Now(),
		Cores: s.Cfg.CPU.Cores,
		Ranks: s.Cfg.Mem.DRAM.Geometry.Channels*s.Cfg.Mem.DRAM.Geometry.Ranks +
			s.Cfg.Mem.PIM.Geometry.Channels*s.Cfg.Mem.PIM.Geometry.Ranks,
		DCEPresent: s.Cfg.Design.UsesDCE(),
	}
	for _, c := range s.CPU.Cores() {
		a.CoreBusy += c.BusyTime()
	}
	for _, st := range s.Mem.DRAM.Stats().Channels {
		a.Acts += st.Acts
		a.Reads += st.Reads
		a.Writes += st.Writes
		a.Refs += st.Refs
	}
	for _, st := range s.Mem.PIM.Stats().Channels {
		a.Acts += st.Acts
		a.Reads += st.Reads
		a.Writes += st.Writes
		a.Refs += st.Refs
	}
	ls := s.Mem.LLC.Stats()
	a.LLCAccesses = ls.Hits + ls.Misses
	a.DCELines = s.DCE.BytesMoved / mem.LineBytes * 2 // staged in and out
	return a
}

// EnergyOver evaluates the energy model over the interval between two
// activity snapshots.
func (s *System) EnergyOver(before, after energy.Activity) energy.Breakdown {
	return s.Cfg.Energy.Energy(after.Sub(before))
}

// PowerTrace samples system power and active-core fraction at a fixed
// window, reproducing the Fig. 4 time series.
type PowerTrace struct {
	Watts      *stats.Series
	ActiveFrac *stats.Series
	window     clock.Picos
	samples    int
}

// SamplePower starts a sampler with the given window; it stops after the
// stop function is invoked.
func (s *System) SamplePower(window clock.Picos) (trace *PowerTrace, stop func()) {
	t := &PowerTrace{
		Watts:      stats.NewSeries(window),
		ActiveFrac: stats.NewSeries(window),
		window:     window,
	}
	stopped := false
	prev := s.Activity()
	s.Eng.Ticker(window, func(now clock.Picos) bool {
		if stopped {
			return false
		}
		cur := s.Activity()
		t.Watts.Add(now-1, s.Cfg.Energy.Power(cur.Sub(prev)))
		t.ActiveFrac.Add(now-1, float64(s.CPU.ActiveCores())/float64(s.Cfg.CPU.Cores))
		t.samples++
		prev = cur
		return true
	})
	return t, func() { stopped = true }
}

// Samples reports how many windows the trace recorded.
func (t *PowerTrace) Samples() int { return t.samples }
