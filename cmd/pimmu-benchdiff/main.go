// Command pimmu-benchdiff compares two benchmark captures (the test2json
// streams `make bench` writes to BENCH_*.json, or plain `go test -bench`
// text) and fails when the new run regresses against the baseline:
//
//   - ns/op above the baseline by more than -max-regress-pct (default
//     20%) is a time regression;
//   - a benchmark whose baseline runs allocation-free (0 allocs/op — the
//     engine's hot-path contract) fails on ANY allocation;
//   - a benchmark that allocates in the baseline (the whole-machine
//     setup benches) fails when allocs/op grow by more than
//     -max-alloc-regress-pct (default 10%; iteration-count amortization
//     makes small wobble normal);
//   - a baseline benchmark missing from the new capture fails — a
//     silently vanished benchmark must not read as a pass.
//
// Benchmarks are matched by (package, name) with the -N GOMAXPROCS
// suffix stripped, so captures from different machines align. When a
// capture holds several runs of the same benchmark (`go test -count=N`,
// wired through as `make bench BENCH_COUNT=N`), the minimum ns/op run
// is kept: min-over-N is the standard way to strip scheduler and
// frequency noise from a shared runner, and both sides of the diff get
// the same treatment. `make bench-compare` runs this against HEAD and
// the CI bench job against HEAD^, both captured on the same host.
//
// Usage:
//
//	pimmu-benchdiff [-max-regress-pct P] [-max-alloc-regress-pct P] old.json new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	maxRegress := flag.Float64("max-regress-pct", 20, "allowed ns/op increase in percent (<= 0 disables the time gate)")
	maxAllocRegress := flag.Float64("max-alloc-regress-pct", 10, "allowed allocs/op increase in percent for benchmarks that allocate at baseline")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: pimmu-benchdiff [-max-regress-pct P] [-max-alloc-regress-pct P] old.json new.json")
		os.Exit(2)
	}
	oldRes, err := readCapture(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	newRes, err := readCapture(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	if len(oldRes) == 0 {
		fatal(fmt.Errorf("baseline %s contains no benchmark results", flag.Arg(0)))
	}
	if failed := compare(oldRes, newRes, *maxRegress, *maxAllocRegress); failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pimmu-benchdiff: %v\n", err)
	os.Exit(2)
}

// result is one benchmark's parsed metrics.
type result struct {
	NsPerOp     float64
	AllocsPerOp float64
	HasAllocs   bool
}

// benchLine matches a completed benchmark result line.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// gomaxprocsSuffix is the trailing -N a parallel run appends to names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// readCapture parses a capture file into (package/name) -> result.
// test2json streams split one result line across several "output"
// events, so output is concatenated per package before line parsing;
// files that are not test2json parse as plain benchmark text under the
// empty package name.
func readCapture(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	byPkg := map[string]*strings.Builder{}
	appendOut := func(pkg, out string) {
		b := byPkg[pkg]
		if b == nil {
			b = &strings.Builder{}
			byPkg[pkg] = b
		}
		b.WriteString(out)
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var ev struct {
			Action  string
			Package string
			Output  string
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.Action == "" {
			// Not a test2json stream: treat the whole line as raw text.
			appendOut("", line+"\n")
			continue
		}
		if ev.Action == "output" {
			appendOut(ev.Package, ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := map[string]result{}
	for pkg, b := range byPkg {
		for _, line := range strings.Split(b.String(), "\n") {
			m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
			if m == nil {
				continue
			}
			name := gomaxprocsSuffix.ReplaceAllString(m[1], "")
			r, ok := parseMetrics(m[2])
			if !ok {
				continue
			}
			// -count=N repeats a benchmark; keep the fastest run.
			key := pkg + "/" + name
			if prev, seen := out[key]; seen && prev.NsPerOp <= r.NsPerOp {
				continue
			}
			out[key] = r
		}
	}
	return out, nil
}

// parseMetrics reads the "value unit" pairs after the iteration count.
func parseMetrics(s string) (result, bool) {
	fields := strings.Fields(s)
	var r result
	seenNs := false
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
			seenNs = true
		case "allocs/op":
			r.AllocsPerOp = v
			r.HasAllocs = true
		}
	}
	return r, seenNs
}

// compare prints one line per baseline benchmark and reports whether any
// gate failed.
func compare(oldRes, newRes map[string]result, maxRegressPct, maxAllocRegressPct float64) bool {
	names := make([]string, 0, len(oldRes))
	for name := range oldRes {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Printf("FAIL: "+format+"\n", args...)
	}
	for _, name := range names {
		o := oldRes[name]
		n, ok := newRes[name]
		if !ok {
			fail("%s: present in baseline but missing from new capture", name)
			continue
		}
		ratio := n.NsPerOp / o.NsPerOp
		fmt.Printf("%-70s %12.4g -> %12.4g ns/op (%+.1f%%)  %g -> %g allocs/op\n",
			name, o.NsPerOp, n.NsPerOp, 100*(ratio-1), o.AllocsPerOp, n.AllocsPerOp)
		if maxRegressPct > 0 && ratio > 1+maxRegressPct/100 {
			fail("%s: ns/op regressed %.1f%% (limit %.0f%%)", name, 100*(ratio-1), maxRegressPct)
		}
		if o.HasAllocs && n.HasAllocs {
			if o.AllocsPerOp == 0 && n.AllocsPerOp > 0 {
				fail("%s: allocation-free baseline now allocates %g allocs/op", name, n.AllocsPerOp)
			}
			if o.AllocsPerOp > 0 && n.AllocsPerOp > o.AllocsPerOp*(1+maxAllocRegressPct/100) {
				fail("%s: allocs/op regressed %.1f%% (limit %.0f%%)", name,
					100*(n.AllocsPerOp/o.AllocsPerOp-1), maxAllocRegressPct)
			}
		}
	}
	if failed {
		fmt.Println("benchmark gate: FAILED")
	} else {
		fmt.Printf("benchmark gate: ok (%d benchmarks within limits)\n", len(names))
	}
	return failed
}
