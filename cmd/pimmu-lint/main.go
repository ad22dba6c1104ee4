// Command pimmu-lint enforces the repository's import layering rules —
// the boundaries the type system cannot express — and its dead-export
// rule:
//
//   - internal/harness: only the compute phase (runner.go and
//     compute*.go) may import repro/internal/system. Plans are pure
//     enumeration and renders are pure text — a renderer that can reach
//     a live machine could silently re-simulate, breaking the
//     warm-cache-equals-cold-compute contract the tier-1 suite checks
//     byte for byte.
//
//   - internal/harness: never imports repro/internal/sim or
//     repro/internal/cpu. The harness reaches machines only through
//     system's run-to-completion operations (RunTransfer, RunStream,
//     the contender helpers), so it never drives an engine or spawns a
//     thread itself.
//
//   - internal/serve: never imports repro/internal/system. The server
//     reaches simulation only through the harness Runner, so every
//     serving path inherits the plan/compute/render split and its
//     determinism contract instead of poking machines directly.
//
//   - internal/serve/api: imports nothing from this repository at all.
//     The wire contract stays pure so CLIs, the server, and future
//     distributed-sweep workers can all speak it without dragging in
//     the simulator.
//
//   - internal/trace: imports nothing from this repository except
//     repro/internal/clock, repro/internal/mem and repro/internal/sim.
//     The Driver reaches a memory system only through mem.Port, so a
//     trace replays the same way on any machine behind that port.
//
//   - internal/prim: never imports repro/internal/system, sim, cpu or
//     core. The PrIM suite is pure data plus the analytic kernel model;
//     the harness measures its transfers as shared transfer records, so
//     there is one way to time a transfer.
//
//   - Every exported top-level func, method, interface method, type,
//     const or var in internal/ has a reader: some non-test .go file in
//     the repository (the root and bench/ modules, examples/ included)
//     reads it outside its own declaration. The files are type-checked
//     (go list, then go/types), so every name resolves to the object it
//     denotes, a generic method through its origin. A concrete method
//     also counts as read when its type implements an interface whose
//     method of that name is read; methods that satisfy
//     standard-library interfaces (String, Error, Unwrap, MarshalJSON,
//     ...) pass. A deliberate test hook passes only with a
//     "//pimmu:keep REASON" line in its doc comment; a kept interface
//     method keeps its implementations.
//
// Run it from the repository root, as `make lint` does after go vet.
// Violations print one per line and exit non-zero.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// systemImport is the package the harness and serve rules guard.
const systemImport = "repro/internal/system"

// repoImportPrefix marks any import from this repository — the api
// purity rule bans the whole namespace.
const repoImportPrefix = "repro/"

// rule is one import-layering constraint: in dir, every non-test file
// outside allowed must not import anything banned.
type rule struct {
	dir     string
	allowed func(name string) bool
	banned  func(importPath string) bool
	explain string // one line appended to the violation count
}

// rules are the repository's layering constraints, checked in order.
var rules = []rule{
	{
		dir:     "internal/harness",
		allowed: computeAllowed,
		banned:  func(p string) bool { return p == systemImport },
		explain: "only runner.go and compute*.go may import " + systemImport,
	},
	{
		dir:     "internal/serve",
		allowed: func(name string) bool { return strings.HasSuffix(name, "_test.go") },
		banned:  func(p string) bool { return p == systemImport },
		explain: "internal/serve reaches simulation only through the harness Runner, never " + systemImport,
	},
	{
		dir:     "internal/serve/api",
		allowed: func(name string) bool { return false },
		banned:  func(p string) bool { return strings.HasPrefix(p, repoImportPrefix) },
		explain: "internal/serve/api is the pure wire contract: no repro/ imports at all",
	},
	{
		dir:     "internal/harness",
		allowed: func(name string) bool { return strings.HasSuffix(name, "_test.go") },
		banned:  func(p string) bool { return p == "repro/internal/sim" || p == "repro/internal/cpu" },
		explain: "internal/harness reaches machines only through " + systemImport + ", never repro/internal/sim or repro/internal/cpu",
	},
	{
		dir:     "internal/trace",
		allowed: func(name string) bool { return strings.HasSuffix(name, "_test.go") },
		banned: func(p string) bool {
			return strings.HasPrefix(p, repoImportPrefix) &&
				p != "repro/internal/clock" && p != "repro/internal/mem" && p != "repro/internal/sim"
		},
		explain: "internal/trace reaches a memory system only through mem.Port: no repro/ imports beyond clock, mem and sim",
	},
	{
		dir:     "internal/prim",
		allowed: func(name string) bool { return strings.HasSuffix(name, "_test.go") },
		banned: func(p string) bool {
			return p == systemImport || p == "repro/internal/sim" || p == "repro/internal/cpu" || p == "repro/internal/core"
		},
		explain: "internal/prim is pure workload data plus the analytic kernel model: never " + systemImport + ", sim, cpu or core",
	},
}

func main() {
	exit := 0
	report := func(bad []string, err error, explain string) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimmu-lint: %v\n", err)
			os.Exit(2)
		}
		for _, v := range bad {
			fmt.Fprintln(os.Stderr, v)
		}
		if len(bad) > 0 {
			fmt.Fprintf(os.Stderr, "pimmu-lint: %d violation(s): %s\n", len(bad), explain)
			exit = 1
		}
	}
	for _, r := range rules {
		bad, err := violations(r)
		report(bad, err, r.explain)
	}
	bad, err := deadExports(".")
	report(bad, err, "delete or unexport each dead export, or mark a test hook "+keepDirective+" REASON")
	os.Exit(exit)
}

// computeAllowed reports whether a harness file may import the system
// package: the Runner machinery and the compute phase, nothing else.
// Test files are exempt — they exercise all three phases.
func computeAllowed(name string) bool {
	if strings.HasSuffix(name, "_test.go") {
		return true
	}
	return name == "runner.go" || strings.HasPrefix(name, "compute")
}

// violations scans the rule's directory (imports only, no type
// checking) and reports every file outside the allowed set with a
// banned import.
func violations(r rule) ([]string, error) {
	files, err := os.ReadDir(r.dir)
	if err != nil {
		return nil, err
	}
	var bad []string
	fset := token.NewFileSet()
	for _, f := range files {
		name := f.Name()
		if f.IsDir() || !strings.HasSuffix(name, ".go") || r.allowed(name) {
			continue
		}
		path := filepath.Join(r.dir, name)
		parsed, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range parsed.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if r.banned(p) {
				bad = append(bad, fmt.Sprintf("%s: imports %s, which this layer bans", path, p))
			}
		}
	}
	return bad, nil
}
