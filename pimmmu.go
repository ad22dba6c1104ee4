// Package pimmmu (import path "repro") is the public API of the PIM-MMU
// reproduction: a simulated memory-bus-integrated PIM system (UPMEM-class,
// Table I of the paper) together with the paper's contribution — the
// PIM-MMU data-transfer architecture (Data Copy Engine + PIM-aware Memory
// Scheduler + Heterogeneous Memory Mapping Unit) — and the software
// baseline it is evaluated against.
//
// A System is one simulated machine. Users allocate host buffers, move
// data to and from PIM cores' MRAM with the design's transfer machinery
// (software dpu_push_xfer for Base, the DCE for PIM-MMU), launch kernels,
// and read results back. Transfers are both functional (bytes really move
// into the simulated MRAM) and timed (a cycle-level DDR4 simulation
// produces the duration), so correctness and performance are observed on
// the same run:
//
//	sys, _ := pimmmu.New(pimmmu.Default(pimmmu.PIMMMU))
//	buf := sys.Malloc(nCores * per)
//	fillInput(buf.Data)
//	res, _ := sys.ToPIM(buf, sys.AllCores(), uint64(per), 0)
//	fmt.Printf("%.1f GB/s\n", res.GBps())
package pimmmu

import (
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/contend"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/system"
)

// Design selects the transfer architecture, mirroring the paper's
// ablation (Fig. 15).
type Design = system.Design

// The four design points of the paper's ablation study.
const (
	// Base is the unmodified PIM system: software multi-threaded
	// transfers under the homogeneous locality-centric mapping.
	Base = system.Base
	// BaseD adds the Data Copy Engine as a conventional DMA ("Base+D").
	BaseD = system.BaseD
	// BaseDH adds the HetMap heterogeneous mapping ("Base+D+H").
	BaseDH = system.BaseDH
	// PIMMMU is the full proposal ("Base+D+H+P").
	PIMMMU = system.PIMMMU
)

// Config is the simplified public configuration. Zero fields take
// Table I defaults; the full internal configuration is derived from it.
type Config struct {
	// Design selects the transfer architecture.
	Design Design
	// Channels is the channel count for both the DRAM and PIM device
	// sets (Table I: 4). Must be a power of two.
	Channels int
	// RanksPerChannel is the rank count per channel (Table I: 2).
	RanksPerChannel int
	// TransferThreads is the baseline runtime's worker count (8).
	TransferThreads int
	// Seed varies the OS page-placement permutation.
	Seed uint64
}

// Default returns the Table I configuration for a design point.
func Default(d Design) Config {
	return Config{Design: d, Channels: 4, RanksPerChannel: 2, TransferThreads: 8}
}

// build derives the full internal configuration.
func (c Config) build() (system.Config, error) {
	cfg := system.DefaultConfig(c.Design)
	if c.Channels != 0 {
		cfg.Mem.DRAM.Geometry.Channels = c.Channels
		cfg.Mem.PIM.Geometry.Channels = c.Channels
		cfg.PIM.DRAM.Channels = c.Channels
	}
	if c.RanksPerChannel != 0 {
		cfg.Mem.DRAM.Geometry.Ranks = c.RanksPerChannel
		cfg.Mem.PIM.Geometry.Ranks = c.RanksPerChannel
		cfg.PIM.DRAM.Ranks = c.RanksPerChannel
	}
	if c.TransferThreads != 0 {
		cfg.Baseline.Threads = c.TransferThreads
		cfg.Memcpy.Threads = c.TransferThreads
	}
	if c.Seed != 0 {
		cfg.Mem.PageSeed = c.Seed
	}
	if err := cfg.Validate(); err != nil {
		return system.Config{}, err
	}
	return cfg, nil
}

// Buffer is a host-side buffer: real bytes plus the simulated physical
// address timing runs against.
type Buffer struct {
	// Addr is the buffer's simulated base address in the DRAM region.
	Addr uint64
	// Data is the functional content.
	Data []byte
}

// Result reports one timed operation.
type Result struct {
	// Bytes moved.
	Bytes uint64
	// Duration of the operation in simulated time.
	Duration time.Duration
	durPicos clock.Picos
}

// GBps is the achieved throughput in decimal gigabytes per second.
func (r Result) GBps() float64 {
	if r.durPicos <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.durPicos.Seconds() / 1e9
}

func resultOf(bytes uint64, d clock.Picos) Result {
	return Result{Bytes: bytes, Duration: time.Duration(d / clock.Nanosecond), durPicos: d}
}

// System is one simulated machine.
type System struct {
	inner *system.System
	cfg   Config
	start energy.Activity
}

// New builds a machine from a public configuration.
func New(c Config) (*System, error) {
	cfg, err := c.build()
	if err != nil {
		return nil, err
	}
	inner, err := system.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &System{inner: inner, cfg: c}
	s.start = inner.Activity()
	return s, nil
}

// MustNew is New for static configurations.
func MustNew(c Config) *System {
	s, err := New(c)
	if err != nil {
		panic(err)
	}
	return s
}

// NumCores reports the PIM core (DPU) count.
func (s *System) NumCores() int { return s.inner.Cfg.PIM.NumCores() }

// AllCores returns [0, NumCores).
func (s *System) AllCores() []int {
	cores := make([]int, s.NumCores())
	for i := range cores {
		cores[i] = i
	}
	return cores
}

// MRAMBytes reports each core's private memory capacity.
func (s *System) MRAMBytes() uint64 { return s.inner.Cfg.PIM.MRAMBytes() }

// Design reports the configured design point.
func (s *System) Design() Design { return s.cfg.Design }

// Elapsed reports total simulated time.
func (s *System) Elapsed() time.Duration {
	return time.Duration(s.inner.Eng.Now() / clock.Nanosecond)
}

// Malloc allocates a host buffer of n bytes (line-aligned).
func (s *System) Malloc(n int) *Buffer {
	if n <= 0 {
		panic("pimmmu: non-positive allocation")
	}
	return &Buffer{Addr: s.inner.Alloc(uint64(n)), Data: make([]byte, n)}
}

// bindSlices binds core i to Data[i*bytesPerCore : (i+1)*bytesPerCore].
func (s *System) bindSlices(b *Buffer, cores []int, bytesPerCore uint64) *XferBuilder {
	x := s.PrepareXfer()
	for i, c := range cores {
		x.Bind(c, b, uint64(i)*bytesPerCore)
	}
	return x
}

// ToPIM copies bytesPerCore bytes from the buffer to each listed core's
// MRAM at mramOff — the dpu_push_xfer / pim_mmu_transfer operation of
// Fig. 10. Core i's slice of the buffer is
// Data[i*bytesPerCore : (i+1)*bytesPerCore]. The copy is functional
// (MRAM contents update) and timed.
func (s *System) ToPIM(b *Buffer, cores []int, bytesPerCore, mramOff uint64) (Result, error) {
	return s.bindSlices(b, cores, bytesPerCore).PushToPIM(bytesPerCore, mramOff)
}

// FromPIM copies bytesPerCore bytes from each listed core's MRAM at
// mramOff back into the buffer, sliced as for ToPIM.
func (s *System) FromPIM(b *Buffer, cores []int, bytesPerCore, mramOff uint64) (Result, error) {
	return s.bindSlices(b, cores, bytesPerCore).PushFromPIM(bytesPerCore, mramOff)
}

// MRAM returns n bytes of a core's MRAM at off — what a DPU kernel would
// read.
func (s *System) MRAM(coreID int, off uint64, n int) []byte {
	return s.inner.Device.ReadMRAM(coreID, off, n)
}

// WriteMRAM stores bytes into a core's MRAM — what a DPU kernel would
// write.
func (s *System) WriteMRAM(coreID int, off uint64, data []byte) {
	s.inner.Device.WriteMRAM(coreID, off, data)
}

// RunKernel advances simulated time by a DPU kernel of the given cycle
// count (350 MHz cores, SPMD lockstep).
func (s *System) RunKernel(cycles int64) time.Duration {
	d := s.inner.Device.KernelTime(cycles)
	s.inner.Eng.RunUntil(s.inner.Eng.Now() + d)
	return time.Duration(d / clock.Nanosecond)
}

// Memcpy performs a timed DRAM->DRAM copy between fresh buffers (the
// Fig. 14 microbenchmark). It is timing-only: no functional bytes move.
func (s *System) Memcpy(bytes uint64) Result {
	r := s.inner.RunMemcpy(bytes)
	return resultOf(r.Bytes, r.Duration)
}

// CompeteCompute launches n compute-bound (spin-lock-like) contender
// threads (Fig. 13a). Call the returned stop function to retire them.
func (s *System) CompeteCompute(n int) (stop func()) {
	return s.inner.SpinContenders(n).Stop
}

// Intensity levels for CompeteMemory.
const (
	IntensityLow      = "low"
	IntensityMedium   = "medium"
	IntensityHigh     = "high"
	IntensityVeryHigh = "veryhigh"
)

// CompeteMemory launches n memory-bound contender threads at the given
// intensity (Fig. 13b).
func (s *System) CompeteMemory(n int, intensity string) (stop func(), err error) {
	var level contend.Intensity
	switch intensity {
	case IntensityLow:
		level = contend.Low
	case IntensityMedium:
		level = contend.Medium
	case IntensityHigh:
		level = contend.High
	case IntensityVeryHigh:
		level = contend.VeryHigh
	default:
		return nil, fmt.Errorf("pimmmu: unknown intensity %q", intensity)
	}
	return s.inner.HogContenders(n, level).Stop, nil
}

// EnergyReport summarizes energy since the system was created.
type EnergyReport struct {
	// TotalJoules is the full-system energy.
	TotalJoules float64
	// StaticJoules is the leakage/background share.
	StaticJoules float64
	// AvgWatts is the average system power.
	AvgWatts float64
	// BytesPerJoule is the transfer energy-efficiency metric of Fig. 15.
	BytesPerJoule float64
}

// Energy evaluates the energy model from system creation to now, judging
// efficiency against the given byte count (pass the bytes your transfers
// moved).
func (s *System) Energy(bytesMoved uint64) EnergyReport {
	cur := s.inner.Activity()
	b := s.inner.EnergyOver(s.start, cur)
	wall := (cur.Wall - s.start.Wall).Seconds()
	rep := EnergyReport{
		TotalJoules:  b.Total(),
		StaticJoules: b.Static(),
	}
	if wall > 0 {
		rep.AvgWatts = b.Total() / wall
	}
	rep.BytesPerJoule = energy.EfficiencyBytesPerJoule(bytesMoved, b)
	return rep
}

// MemStats summarizes memory-system counters.
type MemStats struct {
	DRAMReadBytes   uint64
	DRAMWriteBytes  uint64
	PIMReadBytes    uint64
	PIMWriteBytes   uint64
	DRAMRowHitRate  float64
	PIMRowHitRate   float64
	LLCHitRate      float64
	PerPIMChannelWr []uint64
}

// Stats snapshots the memory-system counters.
func (s *System) Stats() MemStats {
	ds := s.inner.Mem.DRAM.Stats()
	ps := s.inner.Mem.PIM.Stats()
	st := MemStats{
		DRAMReadBytes:  ds.BytesRead(),
		DRAMWriteBytes: ds.BytesWritten(),
		PIMReadBytes:   ps.BytesRead(),
		PIMWriteBytes:  ps.BytesWritten(),
		LLCHitRate:     s.inner.Mem.LLC.Stats().HitRate(),
	}
	var hits, total uint64
	for _, c := range ds.Channels {
		hits += c.RowHits
		total += c.RowHits + c.RowMisses + c.RowConflicts
	}
	if total > 0 {
		st.DRAMRowHitRate = float64(hits) / float64(total)
	}
	hits, total = 0, 0
	for _, c := range ps.Channels {
		hits += c.RowHits
		total += c.RowHits + c.RowMisses + c.RowConflicts
		st.PerPIMChannelWr = append(st.PerPIMChannelWr, c.BytesWritten)
	}
	if total > 0 {
		st.PIMRowHitRate = float64(hits) / float64(total)
	}
	return st
}

// LineBytes is the transfer granularity (one cache line / DDR4 burst).
const LineBytes = mem.LineBytes
