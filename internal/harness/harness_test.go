package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/prim"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/trace"
)

func TestAllExperimentsListed(t *testing.T) {
	want := []string{"table1", "fig4", "fig6", "fig8", "fig13a", "fig13b",
		"fig14", "fig15a", "fig15b", "fig16", "area", "headline", "replay", "loadcurve"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() has %d experiments, want %d", len(got), len(want))
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Errorf("experiment %d = %q, want %q", i, got[i].Name, name)
		}
		if got[i].Brief == "" || got[i].Plan == nil || got[i].Compute == nil || got[i].Render == nil {
			t.Errorf("experiment %q incomplete", name)
		}
	}
}

func TestByName(t *testing.T) {
	if e, ok := ByName("fig8"); !ok || e.Name != "fig8" {
		t.Error("ByName(fig8) failed")
	}
	if _, ok := ByName("fig99"); ok {
		t.Error("ByName(fig99) succeeded")
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Full.String() != "full" {
		t.Error("scale strings wrong")
	}
}

// renderQuick renders one registered experiment at Quick scale through
// a fresh default Runner.
func renderQuick(t *testing.T, name string) string {
	t.Helper()
	e, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown experiment %q", name)
	}
	var buf bytes.Buffer
	e.Render(&buf, Quick, e.Compute(&Runner{}, Quick))
	return buf.String()
}

func TestTable1Rendering(t *testing.T) {
	out := renderQuick(t, "table1")
	for _, want := range []string{"512 PIM cores", "DDR4-2400", "FR-FCFS",
		"16 KB data buffer", "64 KB address buffer", "ChRaBgBkRoCo"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

func TestAreaRendering(t *testing.T) {
	out := renderQuick(t, "area")
	if !strings.Contains(out, "0.85 mm^2") || !strings.Contains(out, "0.37%") {
		t.Errorf("Area output missing paper reference values:\n%s", out)
	}
}

// Fig8 is the cheapest simulation-backed experiment; run it end to end
// and validate the printed ratio is in the paper's neighbourhood.
func TestFig8EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	out := renderQuick(t, "fig8")
	if !strings.Contains(out, "sequential") || !strings.Contains(out, "strided") {
		t.Fatalf("Fig8 output malformed:\n%s", out)
	}
	// The locality/MLP column should show values near 0.30.
	if !strings.Contains(out, "0.3") && !strings.Contains(out, "0.2") {
		t.Errorf("Fig8 ratio not in the paper's neighbourhood:\n%s", out)
	}
}

// Replay is the other cheap simulation-backed experiment; run it end to
// end and validate every workload row renders with a sane gain column.
func TestReplayEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	out := renderQuick(t, "replay")
	for _, wl := range replayWorkloads() {
		if !strings.Contains(out, wl.name) {
			t.Errorf("Replay output missing workload %q:\n%s", wl.name, out)
		}
	}
	if !strings.Contains(out, "x") || !strings.Contains(out, "GB/s") {
		t.Errorf("Replay output missing gain/throughput columns:\n%s", out)
	}
}

// The replay experiment's generator configs must be valid at both
// scales and for every workload tweak, or the sweep would panic
// mid-experiment.
func TestReplayWorkloadConfigsValid(t *testing.T) {
	for _, sc := range []Scale{Quick, Full} {
		base := replayGenConfig(sc)
		if err := base.Validate(); err != nil {
			t.Fatalf("%v: base config invalid: %v", sc, err)
		}
		if sc == Full && base.Records <= replayGenConfig(Quick).Records {
			t.Error("full scale does not grow the workload")
		}
		for _, wl := range replayWorkloads() {
			cfg := base
			if wl.tweak != nil {
				wl.tweak(&cfg)
			}
			if _, err := trace.Generate(wl.pattern, cfg); err != nil {
				t.Errorf("%v %s: %v", sc, wl.name, err)
			}
		}
	}
}

func TestReplayWorkloadNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, wl := range replayWorkloads() {
		if seen[wl.name] {
			t.Errorf("duplicate workload name %q", wl.name)
		}
		seen[wl.name] = true
	}
}

func TestPerCoreFloor(t *testing.T) {
	s := system.DefaultConfig(0)
	if got := s.PerCoreBytes(1); got != 64 {
		t.Errorf("PerCoreBytes(1 byte) = %d, want floor 64", got)
	}
	if got := s.PerCoreBytes(512 * 128); got != 128 {
		t.Errorf("PerCoreBytes = %d, want 128", got)
	}
	if got := s.PerCoreBytes(512*128 + 512*63); got != 128 {
		t.Errorf("PerCoreBytes = %d, want 128 (rounded down to a line)", got)
	}
}

func TestFig15Sizes(t *testing.T) {
	q := fig15Sizes(Quick)
	f := fig15Sizes(Full)
	if len(f) <= len(q) {
		t.Errorf("full sweep (%d sizes) not larger than quick (%d)", len(f), len(q))
	}
	for _, sizes := range [][]uint64{q, f} {
		for i := 1; i < len(sizes); i++ {
			if sizes[i] <= sizes[i-1] {
				t.Errorf("sizes not increasing: %v", sizes)
			}
		}
	}
	if f[len(f)-1] != 256<<20 {
		t.Errorf("full sweep tops out at %d, want the paper's 256 MB", f[len(f)-1])
	}
}

func TestWindowBucketsNormalizes(t *testing.T) {
	a := stats.NewSeries(10)
	b := stats.NewSeries(10)
	a.Add(5, 30) // bucket 0
	b.Add(5, 10)
	a.Add(15, 0) // bucket 1: empty total stays all-zero
	rows := windowBuckets([]*stats.Series{a, b}, 2)
	if rows[0][0] != 75 || rows[0][1] != 25 {
		t.Errorf("bucket 0 shares = %v, want [75 25]", rows[0])
	}
	if rows[1][0] != 0 || rows[1][1] != 0 {
		t.Errorf("empty bucket shares = %v, want zeros", rows[1])
	}
}

func TestFormatters(t *testing.T) {
	if gb(19.2e9) != "19.20" {
		t.Errorf("gb = %q", gb(19.2e9))
	}
	if ratio(2.5) != "2.50x" {
		t.Errorf("ratio = %q", ratio(2.5))
	}
}

// primPair measures one workload at scale through PrimPhases and
// returns its Base and PIM-MMU phases.
func primPair(t *testing.T, name string, scale float64) (base, mmu prim.Phase) {
	t.Helper()
	w, ok := prim.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	ph := PrimPhases(&Runner{}, []prim.Workload{w}, scale)
	if len(ph) != 2 {
		t.Fatalf("%s: %d phases, want 2", name, len(ph))
	}
	return ph[0], ph[1]
}

// End-to-end smoke: a scaled-down VA run must produce a sane breakdown on
// both designs, with PIM-MMU shrinking only the transfer phases.
func TestPrimPhasesVA(t *testing.T) {
	pb, pm := primPair(t, "VA", 1.0/64)
	if pb.Kernel != pm.Kernel || pb.Kernel <= 0 {
		t.Errorf("kernel time differs across designs or is empty: %v vs %v", pb.Kernel, pm.Kernel)
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
func TestPrimPhasesTSMarginal(t *testing.T) {
	pb, pm := primPair(t, "TS", 1.0/256)
	speedup := float64(pb.Total()) / float64(pm.Total())
	t.Logf("TS: base in=%v k=%v out=%v | mmu in=%v k=%v out=%v", pb.In, pb.Kernel, pb.Out, pm.In, pm.Kernel, pm.Out)
	if speedup > 1.10 {
		t.Errorf("TS speedup = %.3fx; should be marginal (kernel-bound)", speedup)
	}
}
