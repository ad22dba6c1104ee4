// Package xfer implements the software data-transfer paths of the paper:
// the baseline multi-threaded dpu_push_xfer engine that UPMEM's runtime
// library uses for DRAM<->PIM copies (Section II-C), and the AVX-512
// multi-threaded DRAM->DRAM memcpy and read-stream microbenchmarks
// (Section V, Fig. 8). All three run one copy loop as thread programs on
// the internal/cpu model, so their throughput is shaped by exactly the
// effects the paper root-causes: limited per-core outstanding requests,
// OS round-robin scheduling, thread herding across channels, and the
// three-stage read -> transpose -> write pipeline.
package xfer

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/pim"
)

// group is one iteration of the copy loop: loads lines read, a barrier
// waiting for them, cycles of compute, then stores lines written.
type group struct {
	loads, stores int
	cycles        int64
}

// source supplies one thread's line groups. next advances to the next
// group; load and store give line i of the current group.
type source interface {
	next() (group, bool)
	load(i int) cpu.Op
	store(i int) cpu.Op
}

// loop is the copy loop every software transfer thread runs: per group,
// the loads in line order, a barrier, the compute, then the stores. The
// stores drain asynchronously through the WC buffers, so the next group's
// loads overlap them, as the out-of-order core would.
type loop struct {
	src source
	g   group
	k   int // next step within the group
	end int // steps in the group
}

// Next implements cpu.Program.
func (p *loop) Next() (cpu.Op, bool) {
	for {
		if p.k == p.end {
			g, ok := p.src.next()
			if !ok {
				return cpu.Op{}, false
			}
			p.g, p.k, p.end = g, 0, g.loads+2+g.stores
		}
		k := p.k
		p.k++
		switch {
		case k < p.g.loads:
			return p.src.load(k), true
		case k == p.g.loads:
			return cpu.Op{Kind: cpu.OpBarrier}, true
		case k == p.g.loads+1:
			if p.g.cycles > 0 {
				return cpu.Op{Kind: cpu.OpCompute, Cycles: p.g.cycles}, true
			}
		default:
			return p.src.store(k - p.g.loads - 2), true
		}
	}
}

// launch spawns one thread per source, named name-0, name-1, ... in
// order, and calls onDone when the last one exits.
func launch(c *cpu.CPU, name string, srcs []source, onDone func()) {
	left := len(srcs)
	for t, src := range srcs {
		c.Spawn(fmt.Sprintf("%s-%d", name, t), &loop{src: src}, func() {
			left--
			if left == 0 && onDone != nil {
				onDone()
			}
		})
	}
}

// lineSource walks lines lines spaced stride bytes apart from src, per
// lines to a group. When copies is set it stores each group's lines to
// the same offsets from dst with non-temporal stores.
type lineSource struct {
	src, dst uint64
	stride   uint64
	lines    uint64 // lines not yet grouped
	per      uint64
	cycles   int64
	copies   bool

	off uint64 // byte offset of the current group's first line
	n   uint64 // lines in the current group
}

func (s *lineSource) next() (group, bool) {
	s.off += s.n * s.stride
	s.n = min(s.per, s.lines)
	if s.n == 0 {
		return group{}, false
	}
	s.lines -= s.n
	g := group{loads: int(s.n), cycles: s.cycles}
	if s.copies {
		g.stores = g.loads
	}
	return g, true
}

func (s *lineSource) load(i int) cpu.Op {
	return cpu.Op{Kind: cpu.OpLoad, Addr: s.src + s.off + uint64(i)*s.stride}
}

func (s *lineSource) store(i int) cpu.Op {
	return cpu.Op{Kind: cpu.OpStore, Addr: s.dst + s.off + uint64(i)*s.stride, NC: true}
}

// SWCostCyclesPerBlock models the AVX-512 software transpose of one
// 64-byte block (Fig. 3) in CPU cycles, measured from shuffle-based 8x8
// byte transposes on Skylake-class cores (roughly 8 shuffle uops plus
// loads/stores per block).
const SWCostCyclesPerBlock = 6

// BaselineConfig parameterizes the software transfer engine.
type BaselineConfig struct {
	// Threads is the runtime library's worker-thread count (the paper's
	// Section V configures 8 concurrent transfer threads).
	Threads int
	// TransposeCycles is the AVX software transpose cost per 64-byte
	// block.
	TransposeCycles int64
	// LoopOverheadCycles is the per-group loop/address bookkeeping cost.
	LoopOverheadCycles int64
}

// DefaultBaselineConfig matches the paper's baseline.
func DefaultBaselineConfig() BaselineConfig {
	return BaselineConfig{
		Threads:            8,
		TransposeCycles:    SWCostCyclesPerBlock,
		LoopOverheadCycles: 8,
	}
}

// Validate reports configuration errors.
func (c BaselineConfig) Validate() error {
	if c.Threads <= 0 {
		return fmt.Errorf("xfer: Threads=%d must be positive", c.Threads)
	}
	if c.TransposeCycles < 0 || c.LoopOverheadCycles < 0 {
		return fmt.Errorf("xfer: negative cycle costs")
	}
	return nil
}

// bankSource is one baseline thread's work: banks first, first+step, ...
// of the op, each walked one line group at a time. The runtime works
// bank-at-a-time because the chips of a DIMM split every burst across
// lanes: one 64-byte PIM line carries LaneBytes for each lane, so a group
// reads one line per lane and the transpose gathers them into whole
// bursts (Fig. 3).
type bankSource struct {
	g      pim.Geometry
	op     *core.Op
	cfg    BaselineConfig
	banks  []pim.Bank
	first  int
	step   int
	groups uint64 // line groups per bank

	k       uint64 // groups started
	bank    *pim.Bank
	line    uint64 // current group within the bank
	pimBase uint64 // the bank's first line of the transfer
}

func (s *bankSource) next() (group, bool) {
	b := s.first + int(s.k/s.groups)*s.step
	if b >= len(s.banks) {
		return group{}, false
	}
	s.bank, s.line = &s.banks[b], s.k%s.groups
	s.k++
	s.pimBase = s.g.BankLineAddr(s.bank.Rep, s.op.MRAMOffset)
	lanes := len(s.bank.Members)
	return group{
		loads:  lanes,
		stores: lanes,
		cycles: s.cfg.TransposeCycles*int64(lanes) + s.cfg.LoopOverheadCycles,
	}, true
}

// dramAddr is lane i's DRAM-side line of the current group.
func (s *bankSource) dramAddr(i int) uint64 {
	return s.op.DRAMAddrs[s.bank.Members[i]] + s.line*mem.LineBytes
}

// pimAddr is lane i's PIM-side line: line group g of the bank spans
// lines [g*L, (g+1)*L).
func (s *bankSource) pimAddr(i int) uint64 {
	return s.pimBase + (s.line*uint64(len(s.bank.Members))+uint64(i))*mem.LineBytes
}

func (s *bankSource) load(i int) cpu.Op {
	if s.op.Dir == core.DRAMToPIM {
		return cpu.Op{Kind: cpu.OpLoad, Addr: s.dramAddr(i)}
	}
	return cpu.Op{Kind: cpu.OpLoad, Addr: s.pimAddr(i), NC: true}
}

// store is an AVX streaming store in both directions.
func (s *bankSource) store(i int) cpu.Op {
	addr := s.dramAddr(i)
	if s.op.Dir == core.DRAMToPIM {
		addr = s.pimAddr(i)
	}
	return cpu.Op{Kind: cpu.OpStore, Addr: addr, NC: true}
}

// RunBaseline launches the multi-threaded software transfer and calls
// onDone when the last worker thread exits. Thread i takes banks i, i+T,
// ... in bank-linear order, matching the UPMEM runtime's work division;
// because bank-linear IDs are channel-major, every thread's early banks
// live in channel 0 (the thread herding of Fig. 6(a)).
func RunBaseline(c *cpu.CPU, g pim.Geometry, op core.Op, cfg BaselineConfig, onDone func()) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if err := op.Validate(g); err != nil {
		panic(err)
	}
	banks := g.Banks(op.Cores)
	srcs := make([]source, min(cfg.Threads, len(banks)))
	for t := range srcs {
		srcs[t] = &bankSource{g: g, op: &op, cfg: cfg, banks: banks, first: t, step: cfg.Threads,
			groups: op.BytesPerCore / mem.LineBytes}
	}
	launch(c, "xfer", srcs, onDone)
}
