package core

import (
	"math"
	"testing"

	"repro/internal/addrmap"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/memsys"
	"repro/internal/pim"
	"repro/internal/sim"
)

// rig bundles a small simulated system for DCE tests.
type rig struct {
	eng  *sim.Engine
	sys  *memsys.System
	geom pim.Geometry
	dce  *Engine
}

func newRig(t *testing.T, mapping memsys.MappingMode, dceCfg Config) *rig {
	t.Helper()
	g := addrmap.Geometry{Channels: 2, Ranks: 2, BankGroups: 4, Banks: 4, Rows: 512, Cols: 128}
	mc := memsys.DefaultConfig()
	mc.DRAM.Geometry = g
	mc.PIM.Geometry = g
	mc.LLC = cache.Config{SizeBytes: 256 << 10, Ways: 8}
	mc.Mapping = mapping
	eng := sim.New()
	sys := memsys.MustNew(eng, mc)
	geom := pim.Geometry{DRAM: g, LanesPerBank: 2} // 128 cores
	return &rig{eng: eng, sys: sys, geom: geom, dce: MustNew(eng, sys, geom, dceCfg)}
}

// op builds a transfer of bytesPerCore to each of n cores.
func (r *rig) op(dir Direction, n int, bytesPerCore uint64) Op {
	op := Op{Dir: dir, BytesPerCore: bytesPerCore}
	for i := 0; i < n; i++ {
		op.Cores = append(op.Cores, i)
		op.DRAMAddrs = append(op.DRAMAddrs, uint64(i)*bytesPerCore)
	}
	return op
}

// transfer runs op to completion and returns its span, timed on the
// simulated clock when the completion callback fires.
func (r *rig) transfer(t *testing.T, op Op) clock.Picos {
	t.Helper()
	begin := r.eng.Now()
	end := clock.Picos(-1)
	r.dce.Transfer(op, func() { end = r.eng.Now() })
	r.eng.Run()
	if end < 0 {
		t.Fatal("transfer never completed")
	}
	return end - begin
}

// throughput is bytes per second over d.
func throughput(bytes uint64, d clock.Picos) float64 { return float64(bytes) / d.Seconds() }

func TestTransferCompletesAndCountsBytes(t *testing.T) {
	r := newRig(t, memsys.MapHetMap, DefaultConfig())
	span := r.transfer(t, r.op(DRAMToPIM, 32, 4096))
	if got := r.sys.PIM.Stats().BytesWritten(); got != 32*4096 {
		t.Errorf("PIM bytes written = %d, want %d", got, 32*4096)
	}
	if got := r.sys.DRAM.Stats().BytesRead(); got != 32*4096 {
		t.Errorf("DRAM bytes read = %d, want %d", got, 32*4096)
	}
	if span <= r.dce.Config().DriverLaunch {
		t.Error("duration does not include transfer time")
	}
	if r.dce.TransfersDone != 1 || r.dce.BytesMoved != 32*4096 {
		t.Errorf("engine counters = %d transfers / %d bytes", r.dce.TransfersDone, r.dce.BytesMoved)
	}
}

func TestReverseDirection(t *testing.T) {
	r := newRig(t, memsys.MapHetMap, DefaultConfig())
	r.transfer(t, r.op(PIMToDRAM, 32, 4096))
	if got := r.sys.PIM.Stats().BytesRead(); got != 32*4096 {
		t.Errorf("PIM bytes read = %d, want %d", got, 32*4096)
	}
	if got := r.sys.DRAM.Stats().BytesWritten(); got != 32*4096 {
		t.Errorf("DRAM bytes written = %d, want %d", got, 32*4096)
	}
}

// With PIM-MS and HetMap, the transfer must spread writes over every PIM
// channel roughly evenly and sustain a large fraction of peak bandwidth.
func TestPIMMSSpreadsChannelsAndSustainsBandwidth(t *testing.T) {
	r := newRig(t, memsys.MapHetMap, DefaultConfig())
	op := r.op(DRAMToPIM, r.geom.NumCores(), 64<<10) // 8 MB total
	thr := throughput(op.Bytes(), r.transfer(t, op))
	st := r.sys.PIM.Stats()
	per := make([]float64, len(st.Channels))
	for i, c := range st.Channels {
		per[i] = float64(c.BytesWritten)
	}
	for i := 1; i < len(per); i++ {
		if per[i] < per[0]*0.9 || per[i] > per[0]*1.1 {
			t.Errorf("channel write imbalance: %v", per)
			break
		}
	}
	// 2 channels of DDR4-2400 = 38.4 GB/s peak; PIM-MS should exceed 60%.
	if gbps := thr / 1e9; gbps < 0.6*38.4 {
		t.Errorf("PIM-MS throughput = %.1f GB/s, want > %.1f", gbps, 0.6*38.4)
	}
}

// Without PIM-MS (vanilla DMA window) the same transfer must be far
// slower — the Base+D effect of Fig. 15.
func TestVanillaDMAIsMuchSlower(t *testing.T) {
	run := func(usePIMMS bool) float64 {
		cfg := DefaultConfig()
		cfg.UsePIMMS = usePIMMS
		r := newRig(t, memsys.MapHetMap, cfg)
		op := r.op(DRAMToPIM, r.geom.NumCores(), 16<<10)
		return throughput(op.Bytes(), r.transfer(t, op))
	}
	with := run(true)
	without := run(false)
	if with < 3*without {
		t.Errorf("PIM-MS speedup = %.2fx (%.1f vs %.1f GB/s), want > 3x",
			with/without, with/1e9, without/1e9)
	}
}

func TestBatchingBeyondAddressBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AddrBufBytes = 32 * cfg.AddrEntryBytes // room for only 32 descriptors
	r := newRig(t, memsys.MapHetMap, cfg)
	r.transfer(t, r.op(DRAMToPIM, 128, 1024)) // 128 descriptors => 4 batches
	if r.dce.BytesMoved != 128*1024 {
		t.Fatalf("batched transfer moved %d bytes, want %d", r.dce.BytesMoved, 128*1024)
	}
	if got := r.sys.PIM.Stats().BytesWritten(); got != 128*1024 {
		t.Errorf("PIM bytes = %d, want %d", got, 128*1024)
	}
}

func TestBusyPanics(t *testing.T) {
	r := newRig(t, memsys.MapHetMap, DefaultConfig())
	r.dce.Transfer(r.op(DRAMToPIM, 4, 1024), func() {})
	defer func() {
		if recover() == nil {
			t.Error("second Transfer while busy did not panic")
		}
	}()
	r.dce.Transfer(r.op(DRAMToPIM, 4, 1024), func() {})
}

func TestEmptyOpPanics(t *testing.T) {
	r := newRig(t, memsys.MapHetMap, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("empty op did not panic")
		}
	}()
	r.dce.Transfer(Op{Dir: DRAMToPIM, BytesPerCore: 64}, func() {})
}

func TestBackToBackTransfers(t *testing.T) {
	r := newRig(t, memsys.MapHetMap, DefaultConfig())
	done := 0
	var run func(i int)
	run = func(i int) {
		if i >= 3 {
			return
		}
		r.dce.Transfer(r.op(DRAMToPIM, 16, 2048), func() {
			done++
			run(i + 1)
		})
	}
	run(0)
	r.eng.Run()
	if done != 3 {
		t.Errorf("completed %d of 3 back-to-back transfers", done)
	}
	if r.dce.Busy() {
		t.Error("engine still busy after drain")
	}
}

func TestDriverOverheadsIncluded(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, memsys.MapHetMap, cfg)
	span := r.transfer(t, r.op(DRAMToPIM, 1, 64))
	min := cfg.DriverLaunch + cfg.DriverInterrupt
	if span < min {
		t.Errorf("tiny transfer duration %v below driver floor %v", span, min)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.DataBufBytes = 0
	if bad.Validate() == nil {
		t.Error("DataBufBytes=0 accepted")
	}
	bad = DefaultConfig()
	bad.DMAWindow = 0
	if bad.Validate() == nil {
		t.Error("DMAWindow=0 accepted")
	}
}

// The MRAM capacity check must hold for values near 2^64, where
// MRAMOffset+BytesPerCore wraps.
func TestOpValidateMRAMRange(t *testing.T) {
	g := pim.DefaultGeometry()
	mram := g.MRAMBytes()
	const top = math.MaxUint64 &^ 63 // the highest line-aligned value
	for _, tc := range []struct {
		off, n uint64
		legal  bool
	}{
		{0, 64, true},
		{mram - 64, 64, true},
		{mram, 64, false},
		{mram - 64, 128, false},
		{top, 64, false},
		{64, top, false},
	} {
		op := Op{Cores: []int{0}, DRAMAddrs: []uint64{0}, BytesPerCore: tc.n, MRAMOffset: tc.off}
		if err := op.Validate(g); (err == nil) != tc.legal {
			t.Errorf("%d bytes at MRAM 0x%x: err=%v, want legal=%v", tc.n, tc.off, err, tc.legal)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if DRAMToPIM.String() != "DRAM->PIM" || PIMToDRAM.String() != "PIM->DRAM" {
		t.Error("Direction.String mismatch")
	}
}

func TestChannelRROrderBetweenSequentialAndPIMMS(t *testing.T) {
	run := func(usePIMMS, chRR bool) float64 {
		cfg := DefaultConfig()
		cfg.UsePIMMS = usePIMMS
		cfg.ChannelRRWithoutPIMMS = chRR
		cfg.DMAWindow = cfg.DataBufBytes / 64
		r := newRig(t, memsys.MapHetMap, cfg)
		op := r.op(DRAMToPIM, r.geom.NumCores(), 8<<10)
		return throughput(op.Bytes(), r.transfer(t, op))
	}
	seq := run(false, false)
	chrr := run(false, true)
	alg1 := run(true, false)
	if !(seq < chrr && chrr < alg1) {
		t.Errorf("issue-order ordering violated: seq %.1f, chRR %.1f, alg1 %.1f GB/s",
			seq/1e9, chrr/1e9, alg1/1e9)
	}
}
