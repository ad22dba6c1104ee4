package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// writeCapture stores a capture file; test2json form when json is true.
func writeCapture(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
	return path
}

const baselineJSON = `{"Action":"start","Package":"repro/internal/sim"}
{"Action":"output","Package":"repro/internal/sim","Output":"goos: linux\n"}
{"Action":"output","Package":"repro/internal/sim","Output":"BenchmarkEngineFast    \t"}
{"Action":"output","Package":"repro/internal/sim","Output":"1000\t        10.0 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"output","Package":"repro/internal/sim","Output":"BenchmarkEngineSetup-8 \t100\t  1000 ns/op\t  640 B/op\t    100 allocs/op\n"}
`

func TestReadCaptureSplitOutputAndSuffix(t *testing.T) {
	res, err := readCapture(writeCapture(t, "base.json", baselineJSON))
	if err != nil {
		t.Fatal(err)
	}
	fast, ok := res["repro/internal/sim/BenchmarkEngineFast"]
	if !ok || fast.NsPerOp != 10 || fast.AllocsPerOp != 0 || !fast.HasAllocs {
		t.Fatalf("split-output result = %+v, %v", fast, ok)
	}
	// The -8 GOMAXPROCS suffix is stripped so captures align across
	// machines.
	setup, ok := res["repro/internal/sim/BenchmarkEngineSetup"]
	if !ok || setup.NsPerOp != 1000 || setup.AllocsPerOp != 100 {
		t.Fatalf("suffixed result = %+v, %v", setup, ok)
	}
}

// TestReadCaptureKeepsMinOverRepeats pins the -count=N treatment: a
// capture holding several runs of one benchmark resolves to the
// fastest run, regardless of order in the stream.
func TestReadCaptureKeepsMinOverRepeats(t *testing.T) {
	capture := `{"Action":"output","Package":"p","Output":"BenchmarkEngineR-8 \t100\t  30.0 ns/op\t  0 B/op\t  0 allocs/op\n"}
{"Action":"output","Package":"p","Output":"BenchmarkEngineR-8 \t100\t  12.0 ns/op\t  0 B/op\t  0 allocs/op\n"}
{"Action":"output","Package":"p","Output":"BenchmarkEngineR-8 \t100\t  20.0 ns/op\t  0 B/op\t  0 allocs/op\n"}
`
	res, err := readCapture(writeCapture(t, "repeat.json", capture))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := res["p/BenchmarkEngineR"]
	if !ok || r.NsPerOp != 12.0 {
		t.Fatalf("min-over-repeats result = %+v, %v; want 12 ns/op", r, ok)
	}
}

func TestReadCapturePlainText(t *testing.T) {
	res, err := readCapture(writeCapture(t, "plain.txt",
		"goos: linux\nBenchmarkEngineX-4   500   20.5 ns/op   0 B/op   0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := res["/BenchmarkEngineX"]; !ok || r.NsPerOp != 20.5 {
		t.Fatalf("plain-text result = %+v, %v", r, ok)
	}
}

func TestCompareGates(t *testing.T) {
	base := map[string]result{
		"p/BenchmarkZeroAlloc": {NsPerOp: 10, AllocsPerOp: 0, HasAllocs: true},
		"p/BenchmarkSetup":     {NsPerOp: 1000, AllocsPerOp: 100, HasAllocs: true},
	}
	cases := []struct {
		name string
		niu  map[string]result
		fail bool
	}{
		{"identical", base, false},
		{"within limits", map[string]result{
			"p/BenchmarkZeroAlloc": {NsPerOp: 11.5, AllocsPerOp: 0, HasAllocs: true},
			"p/BenchmarkSetup":     {NsPerOp: 1100, AllocsPerOp: 105, HasAllocs: true},
		}, false},
		{"time regression", map[string]result{
			"p/BenchmarkZeroAlloc": {NsPerOp: 13, AllocsPerOp: 0, HasAllocs: true},
			"p/BenchmarkSetup":     base["p/BenchmarkSetup"],
		}, true},
		{"new allocation on zero-alloc path", map[string]result{
			"p/BenchmarkZeroAlloc": {NsPerOp: 10, AllocsPerOp: 1, HasAllocs: true},
			"p/BenchmarkSetup":     base["p/BenchmarkSetup"],
		}, true},
		{"alloc growth past limit", map[string]result{
			"p/BenchmarkZeroAlloc": base["p/BenchmarkZeroAlloc"],
			"p/BenchmarkSetup":     {NsPerOp: 1000, AllocsPerOp: 120, HasAllocs: true},
		}, true},
		{"vanished benchmark", map[string]result{
			"p/BenchmarkZeroAlloc": base["p/BenchmarkZeroAlloc"],
		}, true},
	}
	for _, tc := range cases {
		if got, _ := compare(base, tc.niu, 20, 10); got != tc.fail {
			t.Errorf("%s: compare failed=%v, want %v", tc.name, got, tc.fail)
		}
	}
	// Disabling the time gate admits any slowdown but still enforces
	// allocation-freedom.
	slow := map[string]result{
		"p/BenchmarkZeroAlloc": {NsPerOp: 100, AllocsPerOp: 0, HasAllocs: true},
		"p/BenchmarkSetup":     {NsPerOp: 99999, AllocsPerOp: 100, HasAllocs: true},
	}
	if failed, _ := compare(base, slow, 0, 10); failed {
		t.Error("disabled time gate still failed on slowdown")
	}
}

func TestCompareNamesRerunPackages(t *testing.T) {
	base := map[string]result{
		"a/BenchmarkX/sub": {NsPerOp: 10, AllocsPerOp: 0, HasAllocs: true},
		"a/BenchmarkY":     {NsPerOp: 10, AllocsPerOp: 0, HasAllocs: true},
		"b/c/BenchmarkZ":   {NsPerOp: 10, AllocsPerOp: 5, HasAllocs: true},
		"d/BenchmarkW":     {NsPerOp: 10},
	}
	slower := func(ns, allocs float64) result { return result{NsPerOp: ns, AllocsPerOp: allocs, HasAllocs: true} }
	cases := []struct {
		name  string
		niu   map[string]result
		rerun []string
	}{
		{"pass", base, nil},
		// Only ns/op failures: name each package holding one, once.
		{"time only", map[string]result{
			"a/BenchmarkX/sub": slower(13, 0),
			"a/BenchmarkY":     slower(14, 0),
			"b/c/BenchmarkZ":   slower(15, 5),
			"d/BenchmarkW":     base["d/BenchmarkW"],
		}, []string{"a", "b/c"}},
		// Re-measuring cannot clear an allocation failure.
		{"time and alloc", map[string]result{
			"a/BenchmarkX/sub": slower(13, 0),
			"a/BenchmarkY":     base["a/BenchmarkY"],
			"b/c/BenchmarkZ":   slower(10, 9),
			"d/BenchmarkW":     base["d/BenchmarkW"],
		}, nil},
		// Nor a vanished row.
		{"time and vanished", map[string]result{
			"a/BenchmarkX/sub": slower(13, 0),
			"a/BenchmarkY":     base["a/BenchmarkY"],
			"b/c/BenchmarkZ":   base["b/c/BenchmarkZ"],
		}, nil},
	}
	for _, tc := range cases {
		failed, rerun := compare(base, tc.niu, 20, 10)
		if failed != (tc.name != "pass") || !slices.Equal(rerun, tc.rerun) {
			t.Errorf("%s: failed=%v rerun=%q, want rerun %q", tc.name, failed, rerun, tc.rerun)
		}
	}
}
