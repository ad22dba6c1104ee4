package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/system"
)

func TestEstimators(t *testing.T) {
	v := []float64{7, 3, 9, 1, 5, 10, 2, 8, 4, 6}
	if got := minOf(v); got != 1 {
		t.Errorf("minOf = %g, want 1", got)
	}
	if got := median(v); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := median(v[:5]); got != 5 {
		t.Errorf("odd median = %g, want 5", got)
	}
	// Nearest rank: p50 of 1..10 is 5, p99 is 10, p10 is 1.
	for q, want := range map[float64]float64{0.5: 5, 0.99: 10, 0.1: 1} {
		if got := percentile(v, q); got != want {
			t.Errorf("percentile(%g) = %g, want %g", q, got, want)
		}
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %g, %g; want 1, 4", q1, q3)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %g, want 4", got)
	}
}

func TestVerdict(t *testing.T) {
	wall := metric{Name: "wall_s", Better: "lower", Bound: 0.10}
	rate := metric{Name: "sim_mreq_per_s", Better: "higher", Bound: 0.10}
	setup := metric{Name: "setup_s", Better: "lower", Bound: 0.25, Floor: 0.005}
	errs := metric{Name: "error_rate", Better: "lower"}
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	cases := []struct {
		name string
		m    metric
		a, b []float64
		want string
	}{
		{"same runs", wall, steady, steady, "unchanged"},
		{"within bound", wall, steady, scale(steady, 1.05), "unchanged"},
		{"slower beyond bound", wall, steady, scale(steady, 1.2), "worse"},
		{"faster beyond bound", wall, steady, scale(steady, 0.8), "better"},
		{"higher is better", rate, steady, scale(steady, 1.2), "better"},
		{"shift without consistent wins", wall, []float64{1, 1, 1, 1, 1}, []float64{1.3, 1.3, 1.3, 0.9, 0.9}, "unresolved"},
		{"spread beyond bound", wall, steady, []float64{0.7, 1.3, 0.8, 1.2, 1.0}, "unresolved"},
		{"floor absorbs tiny setup", setup, []float64{0.001, 0.001, 0.001}, []float64{0.003, 0.003, 0.003}, "unchanged"},
		{"errors appear", errs, []float64{0, 0, 0}, []float64{0, 0.01, 0}, "worse"},
		{"no errors", errs, []float64{0, 0}, []float64{0, 0}, "unchanged"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if _, wins := verdict(wall, steady, scale(steady, 0.8)); wins != 1 {
		t.Errorf("win ratio %g, want 1", wins)
	}
}

func scale(v []float64, f float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * f
	}
	return out
}

// pprofTop is `go tool pprof -top` output in the shape the fold reads.
const pprofTop = `File: pimmu-benchmark
Type: cpu
Duration: 10.2s, Total samples = 10s (98.04%)
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
     4.00s 40.00% 40.00%      5.00s 50.00%  repro/internal/sim.(*Engine).Step
     1.50s 15.00% 55.00%      1.50s 15.00%  repro/internal/dram.(*Channel).tick
     1.00s 10.00% 65.00%      1.00s 10.00%  runtime.mallocgc
     0.50s  5.00% 70.00%      0.50s  5.00%  runtime.scanobject
     0.50s  5.00% 75.00%      0.50s  5.00%  runtime.futex
     0.50s  5.00% 80.00%      2.00s 20.00%  repro/internal/sweep.MapCachedN[go.shape.float64,repro/internal/harness.Job].func1
     0.50s  5.00% 85.00%      0.50s  5.00%  encoding/json.(*decodeState).object
     0.50s  5.00% 90.00%      0.50s  5.00%  net/http.(*conn).serve
     0.50s  5.00% 95.00%      0.50s  5.00%  repro/internal/serve/api.CheckSchema (inline)
     0.30s  3.00% 98.00%      0.30s  3.00%  repro/internal/mem.(*Req).Done
     0.20s  2.00%   100%      0.20s  2.00%  main.(*child).runSim
`

func TestFoldTop(t *testing.T) {
	shares, err := foldTop(pprofTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 40, "dram": 15, "malloc": 10, "gc": 5, "runtime": 5,
		"sweep": 5, "json": 5, "net": 5, "serve": 5, "other": 5}
	var total float64
	for _, l := range profLayers {
		total += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("%s share %g, want %g", l, shares[l], want[l])
		}
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %g, want 100", total)
	}
	if _, err := foldTop("no table here"); err == nil {
		t.Error("foldTop accepted output without samples")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tables must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var jsonNames []string
	for _, w := range b.Workloads {
		jsonNames = append(jsonNames, w.Name)
	}
	if !slices.Equal(names, jsonNames) {
		t.Errorf("workloads %v, BENCHMARK.json %v", names, jsonNames)
	}
	same := func(what string, code, file []metric) {
		if len(code) != len(file) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(code), len(file))
			return
		}
		for i := range code {
			c, f := code[i], file[i]
			if c.Name != f.Name || c.Unit != f.Unit || c.Better != f.Better || c.Bound != f.Bound {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", what, i, c, f)
			}
		}
	}
	codeE2E := make([]metric, len(endToEnd))
	for i, m := range endToEnd {
		m.Floor = 0 // BENCHMARK.json has no floor
		codeE2E[i] = m
	}
	same("end_to_end", codeE2E, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
}

// TestSmoke runs every workload at tiny size for two rounds in this
// process: no op may fail, and every metric BENCHMARK.json names must be
// reported, end-to-end metrics non-zero.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runChild(childConfig{workload: w.name, seed: 1, rounds: 2,
				tiny: true, workDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Metrics["error_rate"] != 0 {
				t.Fatalf("%d of %d ops failed: %s", res.Failed, res.Attempted, strings.Join(res.Failures, "; "))
			}
			if res.Rounds != 2 || res.Attempted == 0 {
				t.Errorf("%d rounds, %d attempted", res.Rounds, res.Attempted)
			}
			for _, m := range b.EndToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || !(v > 0) {
					t.Errorf("end-to-end %s = %g (reported %v), want > 0", m.Name, v, ok)
				}
			}
			for _, m := range b.PerLayer {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("per-layer %s not reported", m.Name)
				}
			}
		})
	}
}

// TestOracleCatchesConfigChange perturbs one timing parameter of a
// transfer and requires the oracle to reject the result that the
// unperturbed reference digest no longer describes.
func TestOracleCatchesConfigChange(t *testing.T) {
	op := transferOps(1, true)[0]
	run := func(cfg system.Config) outcome {
		s, err := system.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := op.prepare(s)()
		if out.err != nil {
			t.Fatal(out.err)
		}
		return out
	}
	ref := map[string]string{op.name: digest(run(op.cfg).canon)}
	if err := newOracle(ref, false).check(op.name, run(op.cfg).canon); err != nil {
		t.Fatalf("unperturbed rerun: %v", err)
	}
	cfg := op.cfg
	cfg.Mem.PIM.Timing.RCD++
	if err := newOracle(ref, false).check(op.name, run(cfg).canon); err == nil {
		t.Fatal("oracle accepted a result computed with a different PIM tRCD")
	}
	// Within one run, a later round must repeat round 1 exactly.
	o := newOracle(nil, false)
	if err := o.check(op.name, "round 1"); err != nil {
		t.Fatal(err)
	}
	if err := o.check(op.name, "round 2 differs"); err == nil {
		t.Fatal("oracle accepted a round that differs from round 1")
	}
}
