package prim

import (
	"math"
	"testing"

	"repro/internal/clock"
	"repro/internal/pim"
)

func TestSuiteShape(t *testing.T) {
	ws := Suite()
	if len(ws) != 16 {
		t.Fatalf("suite has %d workloads, want 16 (PrIM)", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if w.InBytesPerCore == 0 || w.InBytesPerCore%64 != 0 || w.OutBytesPerCore%64 != 0 {
			t.Errorf("%s: transfer sizes must be positive multiples of 64", w.Name)
		}
		if w.BaselineTransferFraction <= 0 || w.BaselineTransferFraction > 0.999 {
			t.Errorf("%s: transfer fraction %f out of (0, 0.999]", w.Name, w.BaselineTransferFraction)
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

// Scale rounds each volume down to whole lines, floors it at one line,
// and scales the kernel cycles by the same factor.
func TestScale(t *testing.T) {
	w := Workload{Name: "W", InBytesPerCore: 1 << 20, OutBytesPerCore: 64, BaselineTransferFraction: 0.5}
	r, err := w.Scale(1.0/3, 512)
	if err != nil {
		t.Fatal(err)
	}
	want := Scaled{InBytes: (1 << 20) / 3 &^ 63, OutBytes: 64,
		Kernel: clock.NewDomain(pim.DPUClock).Duration(int64(float64(w.KernelCycles(512)) / 3))}
	if r != want {
		t.Errorf("Scale(1/3) = %+v, want %+v", r, want)
	}
}

// A scale that is not positive, not a number, or so large that a volume
// leaves 63 bits is an error, never a silent substitute size.
func TestScaleRejectsOutOfRange(t *testing.T) {
	w, _ := ByName("VA")
	for _, sc := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 0x1p63 / (1 << 20)} {
		if r, err := w.Scale(sc, 512); err == nil {
			t.Errorf("Scale(%v) = %+v, want an error", sc, r)
		}
	}
}

// The kernel phase is the scaled analytic cycle budget at the DPU clock,
// the same on any machine.
func TestKernelTimeAtDPUClock(t *testing.T) {
	w, _ := ByName("VA")
	const scale = 1.0 / 256
	r, err := w.Scale(scale, 512)
	if err != nil {
		t.Fatal(err)
	}
	kc := int64(float64(w.KernelCycles(512)) * scale)
	if want := clock.Picos(kc) * clock.NewDomain(pim.DPUClock).Duration(1); r.Kernel != want || want <= 0 {
		t.Errorf("kernel = %v, want %d cycles at the DPU clock = %v", r.Kernel, kc, want)
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
