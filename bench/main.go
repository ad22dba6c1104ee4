// Command bench is the simulator's end-to-end benchmark. It drives four
// workloads through the repository's public entry points — machines
// built with system.New running transfers, contended transfers and
// open-loop load, and an in-process pimmu-serve over loopback HTTP —
// reports every end-to-end metric by name and unit, checks every
// simulated output against committed reference digests, and, with
// -trace, reports per-layer spans, counts and CPU-profile shares from a
// separate traced run. README.md defines the workloads and metrics.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|DIR] [-out FILE] [-update]
//	bench -compare A.json... -- B.json...
//
// Each workload runs in its own child process, so peak RSS and GC state
// stay per workload. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit status
// is non-zero when any op failed or any output differs from its
// reference.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// buildDir holds everything a run writes: serve's temporary stores and,
// by default, traces.
const buildDir = ".bench_build"

// defaultRounds is the round count when -seconds is 0.
const defaultRounds = 5

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload: transfer, contention, openloop or serve (default all)")
	seed := fs.Uint64("seed", 1, "seed of the openloop pattern generator and Poisson arrivals")
	seconds := fs.Int("seconds", 0, "run rounds of each workload until this many seconds have passed (0 = five rounds)")
	traceArg := fs.String("trace", "0", "0: off; 1 or DIR: also run a traced child per workload and report per-layer metrics, writing spans.jsonl and CPU profiles to DIR (1 = "+buildDir+"/trace)")
	out := fs.String("out", "", "write every metric of every workload to this JSON file (input of -compare)")
	update := fs.Bool("update", false, "rewrite the reference digests of the workloads run (benchmark changes only)")
	compare := fs.Bool("compare", false, "compare -out files: -compare A.json... -- B.json...")
	childMode := fs.Bool("child", false, "run one workload in this process and print its raw result (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be >= 0")
		return 2
	}
	// The load stays within two hardware threads whatever the host.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	cfg := childConfig{workload: *workload, seed: *seed, seconds: *seconds, rounds: defaultRounds,
		update: *update, workDir: filepath.Join(buildDir, "work")}
	switch *traceArg {
	case "", "0":
	case "1":
		cfg.traceDir = filepath.Join(buildDir, "trace")
	default:
		cfg.traceDir = *traceArg
	}
	if *childMode {
		res, err := runChild(cfg)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	return runParent(cfg, *out, stdout, stderr)
}

// valueUnit is one metric in the result line and in -out files.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// outFile is the -out report: every metric of every workload run.
type outFile struct {
	Seed      uint64                          `json:"seed"`
	Workloads map[string]map[string]valueUnit `json:"workloads"`
}

func runParent(cfg childConfig, outPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := findWorkload(cfg.workload); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if cfg.traceDir != "" {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return fail(err)
		}
		if err := os.WriteFile(filepath.Join(cfg.traceDir, "spans.jsonl"), nil, 0o644); err != nil {
			return fail(err)
		}
	}

	final := result{Metrics: map[string]valueUnit{}}
	report := outFile{Seed: cfg.seed, Workloads: map[string]map[string]valueUnit{}}
	updates := map[string]map[string]string{}
	for _, name := range names {
		c := cfg
		c.workload = name
		res, traced, err := runWorkload(c, stderr)
		if err != nil {
			return fail(err)
		}
		printWorkload(stdout, res, traced)

		src, shown := res.Metrics, endToEnd
		if traced != nil {
			src, shown = traced.Metrics, perLayer
			final.Attempted += traced.Attempted
			final.Failed += traced.Failed
		}
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for _, m := range shown {
			key := m.Name
			if len(names) > 1 {
				key = name + "." + m.Name
			}
			final.Metrics[key] = valueUnit{finite(src[m.Name]), m.Unit}
		}
		all := map[string]valueUnit{}
		for k, v := range res.Metrics {
			if traced != nil && strings.HasPrefix(k, "prof.") {
				v = traced.Metrics[k]
			}
			all[k] = valueUnit{finite(v), unitOf(k)}
		}
		report.Workloads[name] = all
		updates[res.OracleKey] = res.Digests
	}
	final.Correct = final.Failed == 0
	if cfg.update {
		if !final.Correct {
			return fail(fmt.Errorf("-update: %d ops failed; references left as they were", final.Failed))
		}
		if err := writeReferences(updates); err != nil {
			return fail(err)
		}
	}
	if outPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail(fmt.Errorf("-out: %w", err))
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload's untraced child and, when cfg.traceDir
// is set, its traced child, whose CPU profile it folds into the traced
// result's prof.* shares. The two children share the time budget.
func runWorkload(cfg childConfig, stderr io.Writer) (res childResult, traced *childResult, err error) {
	traceDir := cfg.traceDir
	if traceDir != "" && cfg.seconds > 0 {
		cfg.seconds = max(1, cfg.seconds/2)
	}
	cfg.traceDir = ""
	if res, err = spawnChild(cfg, stderr); err != nil || traceDir == "" {
		return res, nil, err
	}
	cfg.traceDir = traceDir
	tr, err := spawnChild(cfg, stderr)
	if err != nil {
		return res, nil, err
	}
	shares, err := profileShares(filepath.Join(traceDir, "cpu-"+cfg.workload+".pprof"))
	if err != nil {
		return res, nil, err
	}
	for layer, v := range shares {
		tr.Metrics["prof."+layer+"_pct"] = v
	}
	return res, &tr, nil
}

// spawnChild re-executes this binary to run one workload and decodes the
// result line the child prints last.
func spawnChild(cfg childConfig, stderr io.Writer) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	args := []string{"-child", "-workload", cfg.workload, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds)}
	if cfg.traceDir != "" {
		args = append(args, "-trace", cfg.traceDir)
	}
	if cfg.update {
		args = append(args, "-update")
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("workload %s: %w", cfg.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return childResult{}, fmt.Errorf("workload %s: result line: %w", cfg.workload, err)
	}
	return res, nil
}

// finite maps the NaN or infinity of a metric whose ops all failed to 0;
// JSON has no spelling for them.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// printWorkload writes one workload's human-readable report: the
// end-to-end metrics of the untraced run, then, when traced, the
// per-layer metrics of the traced run and the tracing overhead.
func printWorkload(w io.Writer, res childResult, traced *childResult) {
	check := "no reference digests for this key; rounds checked against each other"
	if res.Checked {
		check = "outputs match the reference digests"
	}
	fmt.Fprintf(w, "== %s: %d rounds, %d attempted, %d failed; %s (%s)\n",
		res.Workload, res.Rounds, res.Attempted, res.Failed, check, res.OracleKey)
	for i, f := range res.Failures {
		if i == 10 {
			fmt.Fprintf(w, "   FAIL ... and %d more\n", len(res.Failures)-10)
			break
		}
		fmt.Fprintln(w, "   FAIL", f)
	}
	row := func(m metric, v float64, note string) {
		fmt.Fprintf(w, "   %-28s %14.6g %-6s%s\n", m.Name, v, m.Unit, note)
	}
	for _, m := range endToEnd {
		row(m, res.Metrics[m.Name], fmt.Sprintf("  bound %.0f%%", m.Bound*100))
	}
	for _, m := range specific {
		if appliesTo(m.Name, res.Workload) {
			row(m, res.Metrics[m.Name], "")
		}
	}
	if res.Workload == "transfer" {
		row(metric{Name: "model.xfer_speedup", Unit: "x"}, res.Metrics["model.xfer_speedup"],
			"  paper: 4.1x (the model is not validated against hardware)")
	}
	if traced == nil {
		return
	}
	fmt.Fprintf(w, "   -- traced run (%d rounds): per-layer metrics\n", traced.Rounds)
	for _, m := range perLayer {
		if !slices.ContainsFunc(specific, func(s metric) bool { return s.Name == m.Name }) {
			row(m, traced.Metrics[m.Name], "")
		}
	}
	fmt.Fprintf(w, "   tracing overhead: %+.4f s wall_s (traced %.4f s, untraced %.4f s)\n",
		traced.Metrics["wall_s"]-res.Metrics["wall_s"], traced.Metrics["wall_s"], res.Metrics["wall_s"])
}
