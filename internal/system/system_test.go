package system

import (
	"strings"
	"testing"

	"repro/internal/clock"
	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/xfer"
)

// smallCfg shrinks the machine for fast tests.
func smallCfg(d Design) Config {
	cfg := DefaultConfig(d)
	cfg.Mem.DRAM.Geometry.Channels = 2
	cfg.Mem.DRAM.Geometry.Ranks = 1
	cfg.Mem.PIM.Geometry.Channels = 2
	cfg.Mem.PIM.Geometry.Ranks = 1
	cfg.PIM.DRAM.Channels = 2
	cfg.PIM.DRAM.Ranks = 1
	return cfg
}

func TestDesignConfigDerivation(t *testing.T) {
	cases := []struct {
		d        Design
		mapping  memsys.MappingMode
		usePIMMS bool
	}{
		{Base, memsys.MapLocalityBoth, true}, // DCE unused for Base
		{BaseD, memsys.MapLocalityBoth, false},
		{BaseDH, memsys.MapHetMap, false},
		{PIMMMU, memsys.MapHetMap, true},
	}
	for _, c := range cases {
		cfg := DefaultConfig(c.d)
		if cfg.Mem.Mapping != c.mapping {
			t.Errorf("%v: mapping = %v, want %v", c.d, cfg.Mem.Mapping, c.mapping)
		}
		if c.d != Base && cfg.DCE.UsePIMMS != c.usePIMMS {
			t.Errorf("%v: UsePIMMS = %v, want %v", c.d, cfg.DCE.UsePIMMS, c.usePIMMS)
		}
	}
	for _, d := range Designs() {
		if err := DefaultConfig(d).Validate(); err != nil {
			t.Errorf("%v: default config invalid: %v", d, err)
		}
	}
}

func TestDesignStrings(t *testing.T) {
	want := map[Design]string{Base: "Base", BaseD: "Base+D",
		BaseDH: "Base+D+H", PIMMMU: "Base+D+H+P", Design(9): "unknown"}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("Design(%d).String() = %q, want %q", int(d), d.String(), s)
		}
	}
	if Base.UsesDCE() || !PIMMMU.UsesDCE() || !BaseD.UsesDCE() {
		t.Error("UsesDCE wrong")
	}
}

func TestAllocBumpAndExhaustion(t *testing.T) {
	s := MustNew(smallCfg(PIMMMU))
	a := s.Alloc(100) // rounds to 128
	b := s.Alloc(64)
	if b != a+128 {
		t.Errorf("allocations not line-aligned bump: 0x%x then 0x%x", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Error("region exhaustion did not panic")
		}
	}()
	s.Alloc(1 << 60)
}

func TestRunTransferBothDesignsAndDirections(t *testing.T) {
	for _, d := range []Design{Base, PIMMMU} {
		for _, dir := range []core.Direction{core.DRAMToPIM, core.PIMToDRAM} {
			s := MustNew(smallCfg(d))
			res := s.RunTransfer(s.TransferOp(dir, 32, 2048))
			if res.Bytes != 32*2048 {
				t.Errorf("%v %v: bytes = %d", d, dir, res.Bytes)
			}
			if res.Duration <= 0 || res.Throughput() <= 0 {
				t.Errorf("%v %v: degenerate result %+v", d, dir, res)
			}
			if res.Design != d || res.Dir != dir {
				t.Errorf("%v %v: result tagged %v %v", d, dir, res.Design, res.Dir)
			}
		}
	}
}

// The ablation ordering at a bandwidth-bound size: PIM-MMU > Base >
// Base+D (vanilla DMA loses to software, Fig. 15).
func TestAblationOrdering(t *testing.T) {
	const per = 8 << 10
	tput := func(d Design) float64 {
		s := MustNew(smallCfg(d))
		return s.RunTransfer(s.TransferOp(core.DRAMToPIM, s.Cfg.PIM.NumCores(), per)).Throughput()
	}
	base := tput(Base)
	baseD := tput(BaseD)
	mmu := tput(PIMMMU)
	if mmu <= base {
		t.Errorf("PIM-MMU %.1f <= Base %.1f GB/s", mmu/1e9, base/1e9)
	}
	if baseD >= base {
		t.Errorf("Base+D %.1f >= Base %.1f GB/s; vanilla DMA should lose", baseD/1e9, base/1e9)
	}
}

func TestRunMemcpy(t *testing.T) {
	s := MustNew(smallCfg(PIMMMU))
	res := s.RunMemcpy(1 << 20)
	if res.Bytes != 1<<20 || res.Throughput() <= 0 {
		t.Errorf("memcpy result %+v", res)
	}
}

func TestRunStream(t *testing.T) {
	s := MustNew(smallCfg(PIMMMU))
	cfg := xfer.DefaultStreamConfig()
	cfg.StrideLines = 2
	res := s.RunStream(cfg, 512)
	want := uint64(cfg.Threads) * 512 * 64
	if res.Bytes != want || res.Throughput() <= 0 {
		t.Errorf("stream result %+v, want %d bytes", res, want)
	}
	if got := s.Mem.DRAM.Stats().BytesRead(); got != want {
		t.Errorf("stream read %d DRAM bytes, want %d", got, want)
	}
	if got := s.Alloc(64); got != want*2 {
		t.Errorf("next allocation at %d, want %d past the strided buffer", got, want*2)
	}
}

func TestXferResultThroughput(t *testing.T) {
	r := XferResult{Bytes: 1 << 30, Duration: clock.Second}
	if got := r.Throughput(); got != float64(1<<30) {
		t.Errorf("Throughput = %v, want %v", got, float64(1<<30))
	}
	if (XferResult{Bytes: 64}).Throughput() != 0 {
		t.Error("zero-duration throughput not 0")
	}
}

func TestActivityAccumulates(t *testing.T) {
	s := MustNew(smallCfg(Base))
	a0 := s.Activity()
	if a0.Reads+a0.Writes != 0 {
		t.Error("fresh system has DRAM activity")
	}
	s.RunTransfer(s.TransferOp(core.DRAMToPIM, 32, 4096))
	a1 := s.Activity()
	d := a1.Sub(a0)
	if d.Reads == 0 || d.Writes == 0 || d.Acts == 0 {
		t.Errorf("transfer produced no command activity: %+v", d)
	}
	if d.CoreBusy <= 0 {
		t.Error("baseline transfer consumed no core time")
	}
	if d.Wall <= 0 {
		t.Error("no wall time elapsed")
	}
	b := s.EnergyOver(a0, a1)
	if b.Total() <= 0 || b.CoreDynamic <= 0 {
		t.Errorf("energy breakdown degenerate: %+v", b)
	}
}

func TestDCEActivityHasNoCoreTime(t *testing.T) {
	s := MustNew(smallCfg(PIMMMU))
	a0 := s.Activity()
	s.RunTransfer(s.TransferOp(core.DRAMToPIM, 32, 4096))
	d := s.Activity().Sub(a0)
	if d.CoreBusy != 0 {
		t.Errorf("DCE transfer consumed %v core time; offload should be free", d.CoreBusy)
	}
	if d.DCELines == 0 {
		t.Error("DCE transfer recorded no staged lines")
	}
}

func TestPowerTraceSamples(t *testing.T) {
	s := MustNew(smallCfg(Base))
	trace, stop := s.SamplePower(20 * clock.Microsecond)
	s.RunTransfer(s.TransferOp(core.DRAMToPIM, s.Cfg.PIM.NumCores(), 4096))
	stop()
	if trace.Samples() == 0 {
		t.Fatal("power trace recorded nothing")
	}
	mid := trace.Watts.Bucket(trace.Watts.Len() / 2)
	if mid < 20 || mid > 120 {
		t.Errorf("mid-transfer power %.1f W implausible", mid)
	}
	frac := trace.ActiveFrac.Bucket(trace.ActiveFrac.Len() / 2)
	if frac < 0.9 {
		t.Errorf("active-core fraction %.2f during baseline transfer, want ~1", frac)
	}
}

func TestContendersRunAndStop(t *testing.T) {
	s := MustNew(smallCfg(PIMMMU))
	base := s.Alloc(4 * (16 << 10))
	st := s.Contenders(4, func(i int, st *contend.Stopper) cpu.Program {
		return contend.Spin(st, base+uint64(i)*(16<<10))
	})
	if s.CPU.Runnable() != 4 {
		t.Errorf("Runnable = %d, want 4", s.CPU.Runnable())
	}
	res := s.RunTransfer(s.TransferOp(core.DRAMToPIM, 32, 2048))
	if res.Bytes == 0 {
		t.Fatal("transfer under contention failed")
	}
	st.Stop()
	s.Eng.Run()
	if s.CPU.Runnable() != 0 {
		t.Errorf("contenders alive after stop: %d", s.CPU.Runnable())
	}
}

// The Fig. 13 contenders claim their working sets from the bump
// allocator in launch order: 16 KiB per spinner, 64 MiB per hog.
func TestContenderHelpers(t *testing.T) {
	s := MustNew(smallCfg(Base))
	spin := s.SpinContenders(2)
	hog := s.HogContenders(1, contend.High)
	if got := s.Alloc(64); got != 2*(16<<10)+(64<<20) {
		t.Errorf("next allocation at %d, want %d", got, 2*(16<<10)+(64<<20))
	}
	if s.CPU.Runnable() != 3 {
		t.Errorf("Runnable = %d, want 3", s.CPU.Runnable())
	}
	spin.Stop()
	hog.Stop()
	s.Eng.Run()
	if s.CPU.Runnable() != 0 {
		t.Errorf("contenders alive after stop: %d", s.CPU.Runnable())
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := DefaultConfig(PIMMMU)
	cfg.CPU.Cores = 0
	if _, err := New(cfg); err == nil {
		t.Error("Cores=0 accepted")
	}
	cfg = DefaultConfig(PIMMMU)
	cfg.Mem.DRAM.Geometry.Channels = 3
	if _, err := New(cfg); err == nil {
		t.Error("3 channels accepted")
	}
	// The PIM device's geometry must be the PIM channels' geometry: a
	// device wider than its channels addresses banks no channel serves.
	cfg = DefaultConfig(PIMMMU)
	cfg.Mem.PIM.Geometry.Channels = 2
	if err := cfg.Validate(); err == nil {
		t.Error("PIM device geometry disagreeing with the PIM channels accepted")
	}
}

func TestParseDesign(t *testing.T) {
	good := map[string]Design{
		"base": Base, "base+d": BaseD, "base+d+h": BaseDH, "pim-mmu": PIMMMU,
	}
	for s, want := range good {
		if d, err := ParseDesign(s); err != nil || d != want {
			t.Errorf("ParseDesign(%q) = %v, %v; want %v", s, d, err, want)
		}
	}
	for _, s := range []string{"", "Base", "pimmmu", "all", "base+d+h+p"} {
		if _, err := ParseDesign(s); err == nil {
			t.Errorf("ParseDesign(%q) accepted", s)
		}
	}
	// Every canonical spelling round-trips through the parser.
	for _, d := range Designs() {
		s := strings.ToLower(d.String())
		s = strings.ReplaceAll(s, "base+d+h+p", "pim-mmu")
		if got, err := ParseDesign(s); err != nil || got != d {
			t.Errorf("round trip %v -> %q -> %v, %v", d, s, got, err)
		}
	}
}

// RecordTrace must capture exactly the transfer's port traffic: one
// line record per staged line, non-decreasing timestamps, and the
// DRAM-read/PIM-write split of a DRAM->PIM copy.
func TestRecordTraceCapturesTransfer(t *testing.T) {
	s := MustNew(smallCfg(PIMMMU))
	rec := s.RecordTrace()
	const n, per = 32, 2048
	res := s.RunTransfer(s.TransferOp(core.DRAMToPIM, n, per))
	s.StopTrace()
	recs := rec.Records()
	if err := trace.Validate(recs); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
	sum := trace.Summarize(recs)
	if sum.BytesRead != res.Bytes || sum.BytesWritten != res.Bytes {
		t.Errorf("recorded %d read / %d written bytes for a %d-byte copy",
			sum.BytesRead, sum.BytesWritten, res.Bytes)
	}
	if sum.PIMRecords != sum.Writes {
		t.Errorf("%d PIM-region records but %d writes; DRAM->PIM writes must all target PIM",
			sum.PIMRecords, sum.Writes)
	}
	// Detached: further traffic must not be captured.
	s.RunTransfer(s.TransferOp(core.DRAMToPIM, n, per))
	if rec.Len() != sum.Records {
		t.Errorf("recorder grew to %d records after StopTrace", rec.Len())
	}
}

// Replayed runs must report through the same counters as native
// transfers and reject invalid inputs.
func TestRunLoadReplay(t *testing.T) {
	s := MustNew(smallCfg(PIMMMU))
	cfg := trace.DefaultGenConfig()
	cfg.Records = 1024
	cfg.FootprintLines = 4096
	cfg.Base = s.Alloc(cfg.FootprintBytes(trace.PatternMixed))
	recs := trace.MustGenerate(trace.PatternMixed, cfg)
	rcfg := trace.DriverConfig{Process: trace.ProcessReplay, MaxInFlight: 64, Cacheable: true}
	a0 := s.Activity()
	r, err := s.RunLoad(recs, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Arrivals != 1024 || r.Completed != 1024 || r.Throughput() <= 0 {
		t.Errorf("degenerate replay result %+v", r)
	}
	d := s.Activity().Sub(a0)
	if d.Reads == 0 {
		t.Error("replay produced no DRAM command activity")
	}
	if d.CoreBusy != 0 {
		t.Error("replay consumed CPU core time; injection bypasses the cores")
	}

	if _, err := s.RunLoad(recs, trace.DriverConfig{Process: trace.ProcessReplay}); err == nil {
		t.Error("invalid replay config accepted")
	}
	bad := []trace.Record{{TSC: 0, Kind: trace.KindRead, Addr: 7, Bytes: 64}}
	if _, err := s.RunLoad(bad, rcfg); err == nil {
		t.Error("invalid trace accepted")
	}
}

// Open-loop runs drive the same port as replays, honor the offered
// arrival count regardless of backpressure, and reject invalid inputs.
func TestRunLoad(t *testing.T) {
	s := MustNew(smallCfg(PIMMMU))
	gcfg := trace.DefaultGenConfig()
	gcfg.Records = 1024
	gcfg.FootprintLines = 4096
	gcfg.Base = s.Alloc(gcfg.FootprintBytes(trace.PatternMixed))
	recs := trace.MustGenerate(trace.PatternMixed, gcfg)
	dcfg := trace.DefaultDriverConfig()
	dcfg.MeanGap = 4 * clock.Nanosecond
	dcfg.Duration = 4 * clock.Microsecond
	sched, err := trace.ArrivalSchedule(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	a0 := s.Activity()
	r, err := s.RunLoad(recs, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Arrivals != uint64(len(sched)) || r.Completed != r.Arrivals {
		t.Errorf("arrivals/completed = %d/%d, want %d scheduled arrivals",
			r.Arrivals, r.Completed, len(sched))
	}
	if r.QueueSum+r.ServiceSum != r.TotalSum {
		t.Errorf("queue %v + service %v != total %v", r.QueueSum, r.ServiceSum, r.TotalSum)
	}
	if r.Total.P50() < r.Service.P50() {
		t.Errorf("total p50 %v below service p50 %v", r.Total.P50(), r.Service.P50())
	}
	if d := s.Activity().Sub(a0); d.Reads == 0 {
		t.Error("open-loop run produced no DRAM command activity")
	}

	if _, err := s.RunLoad(recs, trace.DriverConfig{}); err == nil {
		t.Error("invalid driver config accepted")
	}
	bad := []trace.Record{{TSC: 0, Kind: trace.KindRead, Addr: 7, Bytes: 64}}
	if _, err := s.RunLoad(bad, dcfg); err == nil {
		t.Error("invalid trace accepted")
	}
}

// TestServerConfigAsymmetricGrades models the paper's characterization
// server (Section V): conventional DIMMs at DDR4-3200 alongside UPMEM
// DIMMs at DDR4-2400, the asymmetric-speed-grade deployment commercial
// PIM requires.
func TestServerConfigAsymmetricGrades(t *testing.T) {
	cfg := smallCfg(PIMMMU)
	cfg.Mem.DRAM.Timing = dram.DDR43200()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Mem.DRAM.Timing.Clock == cfg.Mem.PIM.Timing.Clock {
		t.Error("server config should run DRAM faster than PIM DIMMs")
	}
	// The faster DRAM grade must speed up the DRAM-bound read half of a
	// DCE transfer relative to the symmetric config.
	sym := MustNew(smallCfg(PIMMMU))
	asym := MustNew(cfg)
	rs := sym.RunTransfer(sym.TransferOp(core.DRAMToPIM, 32, 16<<10))
	ra := asym.RunTransfer(asym.TransferOp(core.DRAMToPIM, 32, 16<<10))
	if ra.Throughput() < rs.Throughput()*0.95 {
		t.Errorf("DDR4-3200 DRAM made the transfer slower: %.1f vs %.1f GB/s",
			ra.Throughput()/1e9, rs.Throughput()/1e9)
	}
}
