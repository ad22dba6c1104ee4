package xfer

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/pim"
	"repro/internal/sim"
)

// rig is a full Table I system: 8-core CPU, 4+4 channels of DDR4-2400,
// 512 PIM cores.
type rig struct {
	eng  *sim.Engine
	sys  *memsys.System
	cpu  *cpu.CPU
	geom pim.Geometry
	dce  *core.Engine
}

func newRig(mapping memsys.MappingMode) *rig {
	eng := sim.New()
	mc := memsys.DefaultConfig()
	mc.Mapping = mapping
	sys, err := memsys.New(eng, mc)
	if err != nil {
		panic(err)
	}
	geom := pim.DefaultGeometry()
	dce, err := core.New(eng, sys, geom, core.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return &rig{eng: eng, sys: sys, cpu: cpu.New(eng, cpu.DefaultConfig(), sys), geom: geom, dce: dce}
}

// op builds a transfer of bytesPerCore to every PIM core from a
// contiguous source buffer (the Fig. 10 pattern).
func (r *rig) op(dir core.Direction, bytesPerCore uint64) core.Op {
	op := core.Op{Dir: dir, BytesPerCore: bytesPerCore}
	for i := 0; i < r.geom.NumCores(); i++ {
		op.Cores = append(op.Cores, i)
		op.DRAMAddrs = append(op.DRAMAddrs, uint64(i)*bytesPerCore)
	}
	return op
}

// span runs the copy that start launches to completion and returns its
// duration, timed on the simulated clock when the completion callback
// fires.
func (r *rig) span(t *testing.T, start func(onDone func())) clock.Picos {
	t.Helper()
	begin := r.eng.Now()
	end := clock.Picos(-1)
	start(func() { end = r.eng.Now() })
	r.eng.Run()
	if end < 0 {
		t.Fatal("copy never completed")
	}
	return end - begin
}

// throughput is bytes per second over d.
func throughput(bytes uint64, d clock.Picos) float64 { return float64(bytes) / d.Seconds() }

func TestBaselineMovesAllBytes(t *testing.T) {
	r := newRig(memsys.MapLocalityBoth)
	op := r.op(core.DRAMToPIM, 8<<10) // 4 MB total
	r.span(t, func(onDone func()) { RunBaseline(r.cpu, r.geom, op, DefaultBaselineConfig(), onDone) })
	if got := r.sys.PIM.Stats().BytesWritten(); got != op.Bytes() {
		t.Errorf("PIM writes = %d, want %d", got, op.Bytes())
	}
	if got := r.sys.DRAM.Stats().BytesRead(); got != op.Bytes() {
		t.Errorf("DRAM reads = %d, want %d", got, op.Bytes())
	}
}

func TestBaselineReverseDirection(t *testing.T) {
	r := newRig(memsys.MapLocalityBoth)
	op := r.op(core.PIMToDRAM, 8<<10)
	r.span(t, func(onDone func()) { RunBaseline(r.cpu, r.geom, op, DefaultBaselineConfig(), onDone) })
	if got := r.sys.PIM.Stats().BytesRead(); got != op.Bytes() {
		t.Errorf("PIM reads = %d, want %d", got, op.Bytes())
	}
	if got := r.sys.DRAM.Stats().BytesWritten(); got != op.Bytes() {
		t.Errorf("DRAM writes = %d, want %d", got, op.Bytes())
	}
}

// The headline baseline number (Section III-B): software DRAM->PIM copy
// utilizes only a small fraction of PIM bandwidth — the paper measures
// 15.5% of 57.6 GB/s. Our 4-channel PIM set peaks at 76.8 GB/s, so the
// baseline should land far below 30% of it.
func TestBaselineUtilizationIsPoor(t *testing.T) {
	r := newRig(memsys.MapLocalityBoth)
	op := r.op(core.DRAMToPIM, 32<<10) // 16 MB
	thr := throughput(op.Bytes(), r.span(t, func(onDone func()) {
		RunBaseline(r.cpu, r.geom, op, DefaultBaselineConfig(), onDone)
	}))
	// One 64-byte burst every BL command cycles on every PIM channel.
	pimCfg := memsys.DefaultConfig().PIM
	frac := thr / (64 * float64(pimCfg.Timing.Clock) / float64(pimCfg.Timing.BL) * float64(pimCfg.Geometry.Channels))
	if frac > 0.30 {
		t.Errorf("baseline PIM utilization = %.1f%%, expected well below 30%% (paper: 15.5%%)",
			frac*100)
	}
	if frac < 0.05 {
		t.Errorf("baseline PIM utilization = %.1f%%, implausibly low", frac*100)
	}
	t.Logf("baseline DRAM->PIM: %.2f GB/s (%.1f%% of PIM peak)", thr/1e9, frac*100)
}

// Thread herding (Fig. 6a): with channel-major bank IDs and round-robin
// job assignment, the early phase of the transfer must concentrate on
// channel 0.
func TestBaselineHerdsOnOneChannelAtATime(t *testing.T) {
	r := newRig(memsys.MapLocalityBoth)
	op := r.op(core.DRAMToPIM, 16<<10)
	done := false
	RunBaseline(r.cpu, r.geom, op, DefaultBaselineConfig(), func() { done = true })
	// Run only the first quarter of the transfer and look at where PIM
	// writes went.
	for !done && r.sys.PIM.Stats().BytesWritten() < op.Bytes()/4 {
		if !r.eng.Step() {
			break
		}
	}
	st := r.sys.PIM.Stats()
	ch0 := float64(st.Channels[0].BytesWritten)
	total := float64(st.BytesWritten())
	if ch0/total < 0.90 {
		t.Errorf("early-phase channel 0 share = %.1f%%, want > 90%% (thread herding)", ch0/total*100)
	}
	r.eng.Run()
}

// The full PIM-MMU (DCE + HetMap + PIM-MS) must beat the software
// baseline by roughly the paper's 4.1x average.
func TestPIMMMUSpeedupOverBaseline(t *testing.T) {
	const perCore = 32 << 10 // 16 MB total
	rb := newRig(memsys.MapLocalityBoth)
	op := rb.op(core.DRAMToPIM, perCore)
	base := throughput(op.Bytes(), rb.span(t, func(onDone func()) {
		RunBaseline(rb.cpu, rb.geom, op, DefaultBaselineConfig(), onDone)
	}))

	rm := newRig(memsys.MapHetMap)
	mmu := throughput(op.Bytes(), rm.span(t, func(onDone func()) { rm.dce.Transfer(op, onDone) }))

	speedup := mmu / base
	t.Logf("baseline %.2f GB/s, PIM-MMU %.2f GB/s, speedup %.2fx", base/1e9, mmu/1e9, speedup)
	if speedup < 2.5 || speedup > 9.0 {
		t.Errorf("PIM-MMU speedup = %.2fx, want within the paper's envelope (avg 4.1x, max 6.9x)", speedup)
	}
}

func TestMemcpyMovesAllBytes(t *testing.T) {
	r := newRig(memsys.MapLocalityBoth)
	const n = 4 << 20
	r.span(t, func(onDone func()) { RunMemcpy(r.cpu, 0, 1<<30, n, DefaultMemcpyConfig(), onDone) })
	st := r.sys.DRAM.Stats()
	if st.BytesRead() < n || st.BytesWritten() < n {
		t.Errorf("DRAM traffic r/w = %d/%d, want >= %d each", st.BytesRead(), st.BytesWritten(), n)
	}
}

// Fig. 8 / Fig. 14: the same memcpy is several times faster under the
// MLP-centric mapping than under the locality-centric one.
func TestMemcpyMappingSensitivity(t *testing.T) {
	run := func(mode memsys.MappingMode) float64 {
		r := newRig(mode)
		return throughput(8<<20, r.span(t, func(onDone func()) {
			RunMemcpy(r.cpu, 0, 1<<30, 8<<20, DefaultMemcpyConfig(), onDone)
		}))
	}
	locality := run(memsys.MapLocalityBoth)
	mlp := run(memsys.MapHetMap)
	ratio := mlp / locality
	t.Logf("memcpy: locality %.2f GB/s, MLP %.2f GB/s, ratio %.2fx",
		locality/1e9, mlp/1e9, ratio)
	if ratio < 2.0 {
		t.Errorf("MLP/locality memcpy ratio = %.2fx, want > 2x (paper: ~3.3x from Fig. 8)", ratio)
	}
}

func TestBaselineConfigValidate(t *testing.T) {
	if err := DefaultBaselineConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultBaselineConfig()
	bad.Threads = 0
	if bad.Validate() == nil {
		t.Error("Threads=0 accepted")
	}
	if (MemcpyConfig{Threads: 0, GroupLines: 8}).Validate() == nil {
		t.Error("memcpy Threads=0 accepted")
	}
}

func TestMemcpyOddSizePanics(t *testing.T) {
	r := newRig(memsys.MapLocalityBoth)
	defer func() {
		if recover() == nil {
			t.Error("unaligned memcpy did not panic")
		}
	}()
	RunMemcpy(r.cpu, 0, 1<<30, 100, DefaultMemcpyConfig(), nil)
}

// The copy loop's per-op path allocates nothing, for either source.
func TestLoopAllocatesNothing(t *testing.T) {
	g := pim.DefaultGeometry()
	op := (&rig{geom: g}).op(core.DRAMToPIM, 1<<10)
	for _, src := range []source{
		&bankSource{g: g, op: &op, cfg: DefaultBaselineConfig(), banks: g.Banks(op.Cores), step: 1,
			groups: op.BytesPerCore / mem.LineBytes},
		&lineSource{stride: mem.LineBytes, lines: 1 << 20, per: 8, cycles: 8, copies: true},
	} {
		p := &loop{src: src}
		if n := testing.AllocsPerRun(1000, func() { p.Next() }); n != 0 {
			t.Errorf("%T: %v allocations per op", src, n)
		}
	}
}
