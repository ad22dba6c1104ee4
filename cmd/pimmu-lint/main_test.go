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
	bad, err := deadExports(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bad {
		t.Error(v)
	}
}

// writeFiles writes each file, named by its slash-separated path, under
// a fresh temporary directory.
func writeFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestDeadExportDetected(t *testing.T) {
	root := writeFiles(t, map[string]string{
		"go.mod":       "module repro\n\ngo 1.24\n",
		"bench/go.mod": "module repro/bench\n\ngo 1.24\n\nrequire repro v0.0.0\n\nreplace repro => ../\n",
		"internal/foo/foo.go": `package foo

import "errors"

// Dead is read by nothing.
func Dead() int { return Dead() + helper() }

// Used is read by a sibling file as a bare name.
const Used = 1

// BenchOnly is read only by the bench/ module.
func BenchOnly() {}

// TestOnly is read only by a test file.
var TestOnly = 2

// Hook is kept for tests, with a reason.
//
//pimmu:keep test hook: tests override it
func Hook() {}

// Unreasoned is kept without a reason.
//
//pimmu:keep
func Unreasoned() {}

// T is read by bar.go.
type T struct{}

func (T) String() string { return "" }
func (T) Error() string  { return "" }
func (T) Unwrap() error  { return errors.New("") }

// Called is read through a selector in bar.go.
func (T) Called() {}

// Orphan is a method nobody calls.
func (T) Orphan() {}

// A and B each have a Size; only A's is read.
type A struct{}
type B struct{}

func (A) Size() int { return 0 }
func (B) Size() int { return 0 }

// Shape's Area is read; Sq.Area only through it.
type Shape interface{ Area() int }
type Sq struct{}

func (Sq) Area() int { return 0 }

// Box[int].Get is read.
type Box[V any] struct{ v V }

func (b Box[V]) Get() V { return b.v }

// Ghost is an interface method nobody calls.
type Ghostly interface{ Ghost() }

// Inverse keeps Undo for tests, and so Sq's implementation of it.
type Inverse interface {
	//pimmu:keep test oracle
	Undo()
}

func (Sq) Undo() {}

func helper() int { return Used }
`,
		"internal/foo/foo_test.go": "package foo\n\nvar _ = TestOnly\n",
		"internal/foo/bar/bar.go": `package bar

import f "repro/internal/foo"

func use() {
	f.T{}.Called()
	f.A{}.Size()
	var s f.Shape = f.Sq{}
	s.Area()
	f.Box[int]{}.Get()
	var _ f.Ghostly
	var _ f.B
	var _ f.Inverse = f.Sq{}
}
`,
		"bench/main.go": `package main

import "repro/internal/foo"

func main() { foo.BenchOnly() }
`,
	})
	bad, err := deadExports(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range bad {
		got = append(got, v[strings.Index(v, ": ")+2:])
	}
	want := []string{
		"exported Dead is read by no non-test file",
		"exported TestOnly is read by no non-test file",
		"exported Orphan is read by no non-test file",
		"exported Size is read by no non-test file",
		"exported Ghost is read by no non-test file",
		"//pimmu:keep on Unreasoned gives no reason",
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
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
