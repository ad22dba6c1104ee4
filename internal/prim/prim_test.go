package prim

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/pim"
	"repro/internal/system"
)

func TestSuiteShape(t *testing.T) {
	ws := Suite()
	if len(ws) != 16 {
		t.Fatalf("suite has %d workloads, want 16 (PrIM)", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if err := w.Validate(); err != nil {
			t.Error(err)
		}
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
	}
	for _, name := range []string{"BFS", "BS", "GEMV", "HST-L", "HST-S", "MLP", "NW",
		"RED", "SCAN-RSS", "SCAN-SSA", "SEL", "SpMV", "TRNS", "TS", "UNI", "VA"} {
		if !seen[name] {
			t.Errorf("missing workload %s", name)
		}
	}
}

func TestByName(t *testing.T) {
	if w, ok := ByName("VA"); !ok || w.Name != "VA" {
		t.Error("ByName(VA) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
}

// The average baseline transfer fraction across the suite must track the
// paper's 63.7% average, and TS must be the kernel-dominated outlier.
func TestTransferFractionsMatchPaperShape(t *testing.T) {
	ws := Suite()
	var sum float64
	var maxF float64
	for _, w := range ws {
		sum += w.BaselineTransferFraction
		if w.BaselineTransferFraction > maxF {
			maxF = w.BaselineTransferFraction
		}
	}
	avg := sum / float64(len(ws))
	if avg < 0.50 || avg > 0.75 {
		t.Errorf("average transfer fraction = %.3f, want near the paper's 0.637", avg)
	}
	ts, _ := ByName("TS")
	if ts.BaselineTransferFraction > 0.05 {
		t.Error("TS should be kernel-dominated (paper: transfer is negligible)")
	}
	if maxF < 0.90 {
		t.Error("no workload is transfer-dominated; paper reports up to 99.7%")
	}
}

// Kernel cycles must scale linearly with transfer volume and inversely
// with the transfer fraction.
func TestKernelCyclesModel(t *testing.T) {
	w := Workload{Name: "x", InBytesPerCore: 1 << 20, OutBytesPerCore: 1 << 20,
		BaselineTransferFraction: 0.5}
	c512 := w.KernelCycles(512)
	c256 := w.KernelCycles(256)
	if d := c512 - 2*c256; d < -1 || d > 1 {
		t.Errorf("KernelCycles not linear in cores: %d vs %d", c512, c256)
	}
	w2 := w
	w2.BaselineTransferFraction = 0.25
	if w2.KernelCycles(512) <= w.KernelCycles(512) {
		t.Error("lower transfer fraction should mean more kernel cycles")
	}
}

// End-to-end smoke: a scaled-down VA run must produce a sane breakdown on
// both designs, with PIM-MMU shrinking only the transfer phases.
func TestRunEndToEndVA(t *testing.T) {
	w, _ := ByName("VA")
	const scale = 1.0 / 64
	base := system.MustNew(system.DefaultConfig(system.Base))
	pb := RunEndToEnd(base, w, scale)
	mmu := system.MustNew(system.DefaultConfig(system.PIMMMU))
	pm := RunEndToEnd(mmu, w, scale)

	if pb.Kernel != pm.Kernel {
		t.Errorf("kernel time differs across designs: %v vs %v", pb.Kernel, pm.Kernel)
	}
	if pm.In >= pb.In || pm.Out >= pb.Out {
		t.Errorf("PIM-MMU transfers not faster: in %v vs %v, out %v vs %v",
			pm.In, pb.In, pm.Out, pb.Out)
	}
	speedup := float64(pb.Total()) / float64(pm.Total())
	if speedup < 1.2 {
		t.Errorf("end-to-end speedup = %.2fx, want > 1.2x for a transfer-heavy workload", speedup)
	}
	t.Logf("VA end-to-end: base %v (xfer %.0f%%), pim-mmu %v, speedup %.2fx",
		pb.Total(), pb.TransferFraction()*100, pm.Total(), speedup)
}

// TS must show almost no end-to-end gain (paper: transfer is not its
// bottleneck).
func TestRunEndToEndTSMarginal(t *testing.T) {
	w, _ := ByName("TS")
	const scale = 1.0 / 256
	base := system.MustNew(system.DefaultConfig(system.Base))
	pb := RunEndToEnd(base, w, scale)
	mmu := system.MustNew(system.DefaultConfig(system.PIMMMU))
	pm := RunEndToEnd(mmu, w, scale)
	speedup := float64(pb.Total()) / float64(pm.Total())
	t.Logf("TS: base in=%v k=%v out=%v | mmu in=%v k=%v out=%v", pb.In, pb.Kernel, pb.Out, pm.In, pm.Kernel, pm.Out)
	if speedup > 1.10 {
		t.Errorf("TS speedup = %.3fx; should be marginal (kernel-bound)", speedup)
	}
}

// The kernel phase is the scaled analytic cycle budget at the DPU clock,
// the same on both designs.
func TestRunEndToEndKernelAtDPUClock(t *testing.T) {
	w, _ := ByName("VA")
	const scale = 1.0 / 256
	for _, d := range []system.Design{system.Base, system.PIMMMU} {
		s := system.MustNew(system.DefaultConfig(d))
		ph := RunEndToEnd(s, w, scale)
		kc := int64(float64(w.KernelCycles(s.Cfg.PIM.NumCores())) * scale)
		if want := clock.NewDomain(pim.DPUClock).Duration(kc); ph.Kernel != want {
			t.Errorf("%v: kernel = %v, want %d cycles at the DPU clock = %v", d, ph.Kernel, kc, want)
		}
	}
}

func TestPhaseHelpers(t *testing.T) {
	p := Phase{In: 30, Kernel: 40, Out: 30}
	if p.Total() != 100 {
		t.Errorf("Total = %d", p.Total())
	}
	if p.TransferFraction() != 0.6 {
		t.Errorf("TransferFraction = %v", p.TransferFraction())
	}
	if (Phase{}).TransferFraction() != 0 {
		t.Error("zero phase fraction != 0")
	}
}
