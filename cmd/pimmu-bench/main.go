// Command pimmu-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	pimmu-bench [-full] [-format text|json] [-workers N] [-shards N|auto] [-cache-dir DIR] [-cache off|rw|ro] [-cpuprofile FILE] [-memprofile FILE] <experiment>|all|list
//
// Experiments: table1 fig4 fig6 fig8 fig13a fig13b fig14 fig15a fig15b
// fig16 area headline. Quick sizes are the default; -full uses the
// paper's sizes (slow: the 256 MB sweeps simulate hundreds of millions
// of DRAM commands). Multi-design experiments fan their independent
// simulations across CPU cores; -workers caps the parallelism (1 forces
// the serial path, which produces byte-identical output). -shards
// selects the event-engine class of each simulated machine: 0 (the
// default) is the plain engine, any other count or auto the sharded
// engine. The two classes are separate event orders and can give
// different results (fig8, fig14); see system.Config.Shards.
//
// -cache-dir enables the content-addressed result cache: every sweep job
// (one design point of one experiment) is keyed on (config fingerprint,
// op, code version) and served from disk when a prior run already
// computed it — which is what makes `-full` reruns and the nightly CI
// render incremental. The fingerprint keys the engine class, not the
// -shards count, and excludes -workers, so a cache warmed at -shards 1
// serves -shards 4 (the plain -shards 0 engine keys separately).
// Experiment tables are
// byte-identical warm or cold; the per-experiment hit/miss summary
// prints in the timing footer, which is not part of the deterministic
// artifact. -cache ro shares a cache directory without writing to it
// (e.g. a CI-owned cache).
//
// -cpuprofile and -memprofile write pprof profiles of the run (see
// `make profile` for the canonical invocation).
//
// -format json replaces the rendered tables with one serve/api
// ExperimentResult per experiment (NDJSON on stdout): the structured
// per-design-point results plus the text render as a field — the same
// payload pimmu-serve returns, so anything consuming the server's API
// consumes this CLI unchanged. Timing footers move to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/harness"
	"repro/internal/resultcache"
)

// benchFlags is the parsed pimmu-bench flag set: the shared Runner flags
// plus the bench-only -full.
type benchFlags struct {
	full   *bool
	runner *harness.RunnerFlags
}

// registerFlags registers every pimmu-bench flag on fs; the shared
// Runner flags come from the harness helper so all three CLIs stay in
// sync.
func registerFlags(fs *flag.FlagSet) *benchFlags {
	return &benchFlags{
		full:   fs.Bool("full", false, "use the paper's full experiment sizes"),
		runner: harness.RegisterRunnerFlags(fs),
	}
}

// cacheStore is the -cache-dir result cache (nil = off).
var cacheStore *resultcache.Store

func main() {
	f := registerFlags(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()
	runner, store, err := f.runner.Runner()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimmu-bench: %v\n", err)
		os.Exit(2)
	}
	cacheStore = store
	format, err := f.runner.Format()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimmu-bench: %v\n", err)
		os.Exit(2)
	}
	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	sc := harness.Quick
	if *f.full {
		sc = harness.Full
	}
	name := flag.Arg(0)
	if name == "list" {
		for _, e := range harness.All() {
			fmt.Printf("  %-9s %s\n", e.Name, e.Brief)
		}
		return
	}
	exps := harness.All()
	if name != "all" {
		e, err := harness.Lookup(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimmu-bench: %v\n", err)
			os.Exit(2)
		}
		exps = []harness.Experiment{e}
	}
	stopProf, err := f.runner.StartProfiles()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimmu-bench: %v\n", err)
		os.Exit(2)
	}
	for _, e := range exps {
		if err := runOne(runner, e, sc, format); err != nil {
			fmt.Fprintf(os.Stderr, "pimmu-bench: %v\n", err)
			os.Exit(1)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "pimmu-bench: %v\n", err)
		os.Exit(1)
	}
}

// runOne computes one experiment through the structured-result path and
// prints it in the selected format: text writes the header, the
// rendered table (the Text field of the structured result — the same
// bytes the pre-structured render produced), and the timing footer;
// json writes one serve/api ExperimentResult as an NDJSON line to
// stdout, with the timing footer on stderr.
func runOne(r *harness.Runner, e harness.Experiment, sc harness.Scale, format string) error {
	start := time.Now()
	before := cacheStore.Stats()
	if format == "json" {
		res, err := harness.ComputeResult(r, e, sc)
		if err != nil {
			return err
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pimmu-bench: %s done in %v; cache: %v\n",
			e.Name, time.Since(start).Round(time.Millisecond), cacheStore.Stats().Sub(before))
		return nil
	}
	fmt.Printf("==== %s — %s (%s mode) ====\n", e.Name, e.Brief, sc)
	res, err := harness.ComputeResult(r, e, sc)
	if err != nil {
		return err
	}
	os.Stdout.WriteString(res.Text)
	// The footer is timing/diagnostic output, outside the deterministic
	// experiment artifact — the tables above are byte-identical whether
	// the numbers below say "all hits" or "all misses".
	if cacheStore != nil {
		fmt.Printf("---- %s done in %v; cache: %v ----\n\n",
			e.Name, time.Since(start).Round(time.Millisecond), cacheStore.Stats().Sub(before))
		return nil
	}
	fmt.Printf("---- %s done in %v ----\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: pimmu-bench [-full] [-format text|json] [-workers N] [-shards N|auto] [-cache-dir DIR] [-cache off|rw|ro] [-cpuprofile FILE] [-memprofile FILE] <experiment>|all|list\n")
	flag.PrintDefaults()
}
