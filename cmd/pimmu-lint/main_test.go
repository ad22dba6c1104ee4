package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestComputeAllowed(t *testing.T) {
	for name, want := range map[string]bool{
		"runner.go":       true,
		"compute.go":      true,
		"compute_figs.go": true,
		"harness_test.go": true,
		"render.go":       false,
		"harness.go":      false,
		"axes.go":         false,
		"results.go":      false,
	} {
		if got := computeAllowed(name); got != want {
			t.Errorf("computeAllowed(%q) = %v, want %v", name, got, want)
		}
	}
}

// reroot points a rule's directory at the repository root, which is two
// levels up from this package's test working directory.
func reroot(r rule) rule {
	r.dir = filepath.Join("..", "..", r.dir)
	return r
}

// The real tree must satisfy every rule it ships.
func TestRepositoryIsClean(t *testing.T) {
	for _, r := range rules {
		bad, err := violations(reroot(r))
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range bad {
			t.Error(v)
		}
	}
}

func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestHarnessViolationDetected(t *testing.T) {
	r := rules[0]
	r.dir = writeFiles(t, map[string]string{
		"render.go":  "package harness\n\nimport _ \"repro/internal/system\"\n",
		"compute.go": "package harness\n\nimport _ \"repro/internal/system\"\n",
		"axes.go":    "package harness\n\nimport _ \"fmt\"\n",
	})
	bad, err := violations(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || !strings.Contains(bad[0], "render.go") {
		t.Fatalf("violations = %v, want exactly the render.go one", bad)
	}
}

func TestHarnessEngineViolationDetected(t *testing.T) {
	r := rules[3]
	r.dir = writeFiles(t, map[string]string{
		"compute.go":      "package harness\n\nimport _ \"repro/internal/sim\"\n",
		"runner.go":       "package harness\n\nimport _ \"repro/internal/cpu\"\n",
		"axes.go":         "package harness\n\nimport _ \"repro/internal/system\"\n",
		"harness_test.go": "package harness\n\nimport _ \"repro/internal/sim\"\n",
	})
	bad, err := violations(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 || !strings.Contains(bad[0], "compute.go") || !strings.Contains(bad[1], "runner.go") {
		t.Fatalf("violations = %v, want the compute.go and runner.go ones", bad)
	}
}

func TestServeViolationDetected(t *testing.T) {
	r := rules[1]
	r.dir = writeFiles(t, map[string]string{
		"server.go":     "package serve\n\nimport _ \"repro/internal/system\"\n",
		"job.go":        "package serve\n\nimport _ \"repro/internal/harness\"\n",
		"serve_test.go": "package serve\n\nimport _ \"repro/internal/system\"\n",
	})
	bad, err := violations(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || !strings.Contains(bad[0], "server.go") {
		t.Fatalf("violations = %v, want exactly the server.go one", bad)
	}
}

func TestAPIPurityViolationDetected(t *testing.T) {
	r := rules[2]
	r.dir = writeFiles(t, map[string]string{
		"api.go":      "package api\n\nimport _ \"repro/internal/harness\"\n",
		"api_test.go": "package api\n\nimport _ \"repro/internal/resultcache\"\n",
		"pure.go":     "package api\n\nimport _ \"encoding/json\"\n",
	})
	bad, err := violations(r)
	if err != nil {
		t.Fatal(err)
	}
	// The purity rule has no test exemption: the contract package must
	// stay dependency-free even in its tests.
	if len(bad) != 2 {
		t.Fatalf("violations = %v, want the api.go and api_test.go ones", bad)
	}
}

func TestTraceViolationDetected(t *testing.T) {
	r := rules[4]
	r.dir = writeFiles(t, map[string]string{
		"inject.go":      "package trace\n\nimport (\n\t_ \"repro/internal/mem\"\n\t_ \"repro/internal/sim\"\n)\n",
		"driver.go":      "package trace\n\nimport _ \"repro/internal/memsys\"\n",
		"trace.go":       "package trace\n\nimport _ \"repro/internal/clock\"\n",
		"replay_test.go": "package trace\n\nimport _ \"repro/internal/system\"\n",
	})
	bad, err := violations(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || !strings.Contains(bad[0], "driver.go") {
		t.Fatalf("violations = %v, want exactly the driver.go one", bad)
	}
}

func TestPrimViolationDetected(t *testing.T) {
	r := rules[5]
	r.dir = writeFiles(t, map[string]string{
		"workloads.go": "package prim\n\nimport (\n\t_ \"repro/internal/clock\"\n\t_ \"repro/internal/pim\"\n)\n",
		"runner.go":    "package prim\n\nimport _ \"repro/internal/system\"\n",
		"engine.go":    "package prim\n\nimport _ \"repro/internal/sim\"\n",
		"threads.go":   "package prim\n\nimport _ \"repro/internal/cpu\"\n",
		"dir.go":       "package prim\n\nimport _ \"repro/internal/core\"\n",
		"prim_test.go": "package prim\n\nimport _ \"repro/internal/system\"\n",
	})
	bad, err := violations(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 4 || slices.ContainsFunc(bad, func(v string) bool {
		return strings.Contains(v, "workloads.go") || strings.Contains(v, "prim_test.go")
	}) {
		t.Fatalf("violations = %v, want the runner, engine, threads and dir ones", bad)
	}
}
