// Command pimmu-sim runs a single DRAM<->PIM transfer on a chosen design
// point and prints throughput, memory-system statistics, and energy —
// or, with -design all, sweeps every design point in parallel and prints
// the ablation comparison.
//
// Usage:
//
//	pimmu-sim [-design base|base+d|base+d+h|pim-mmu|all] [-mb N] [-dir to|from] [-format text|json] [-workers N] [-shards N|auto] [-cache-dir DIR] [-cache off|rw|ro] [-cpuprofile FILE] [-memprofile FILE] [-list] [-cache-gc]
//
// -workers parallelizes across independent design-point machines;
// output is independent of it. -shards selects the event-engine class:
// 0 (the default) is the plain engine, any other count or auto the
// sharded engine. The two classes are separate event orders and can give
// different results; see system.Config.Shards.
//
// -cache-dir enables the content-addressed result cache: each design
// point's measurement is keyed on (config fingerprint, direction, size,
// code version) and served from disk when already computed, so warm
// reruns print byte-identical reports without simulating. The
// fingerprint keys the engine class, not the -shards count, and
// excludes -workers, so a cache warmed at -shards 1 serves -shards 4
// (the plain -shards 0 engine keys separately). A hit/miss summary goes
// to stderr; stdout stays identical warm or cold.
//
// -cpuprofile and -memprofile write pprof profiles of the run — the CPU
// profile covers the measured transfers, the heap profile is captured
// at exit after a GC.
//
// -cache-gc garbage-collects the -cache-dir directory instead of
// simulating: entries written under a different code version — which
// can never hit again under this build — are deleted; valid entries and
// foreign files are left alone.
//
// -list prints every harness experiment name with its one-line
// description (the registry pimmu-bench serves).
//
// -format json replaces the text report with one serve/api
// ExperimentResult NDJSON line: the measurements as structured data
// plus the text report in the Text field — the same wire shape
// pimmu-serve returns.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/serve/api"
	"repro/internal/system"
)

// simFlags is the parsed pimmu-sim flag set: the shared Runner flags
// plus the transfer parameters and maintenance verbs.
type simFlags struct {
	design  *string
	mb      *uint64
	dir     *string
	list    *bool
	cacheGC *bool
	runner  *harness.RunnerFlags
}

// registerFlags registers every pimmu-sim flag on fs; the shared Runner
// flags come from the harness helper so all three CLIs stay in sync.
func registerFlags(fs *flag.FlagSet) *simFlags {
	return &simFlags{
		design:  fs.String("design", "pim-mmu", "design point: base, base+d, base+d+h, pim-mmu, or all"),
		mb:      fs.Uint64("mb", 16, "total transfer size in MiB"),
		dir:     fs.String("dir", "to", "direction: to (DRAM->PIM) or from (PIM->DRAM)"),
		list:    fs.Bool("list", false, "list every harness experiment and exit"),
		cacheGC: fs.Bool("cache-gc", false, "delete stale-code-version entries from -cache-dir and exit"),
		runner:  harness.RegisterRunnerFlags(fs),
	}
}

func main() {
	f := registerFlags(flag.CommandLine)
	flag.Parse()
	if *f.list {
		for _, e := range harness.All() {
			fmt.Printf("  %-9s %s\n", e.Name, e.Brief)
		}
		return
	}
	if *f.cacheGC {
		dir := f.runner.CacheDir()
		if dir == "" {
			fmt.Fprintln(os.Stderr, "pimmu-sim: -cache-gc requires -cache-dir")
			os.Exit(2)
		}
		st, err := resultcache.Prune(dir, resultcache.CodeVersion())
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimmu-sim: cache-gc: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("pimmu-sim: cache-gc: %v\n", st)
		return
	}
	runner, store, err := f.runner.Runner()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimmu-sim: %v\n", err)
		os.Exit(2)
	}

	dir := core.DRAMToPIM
	if *f.dir == "from" {
		dir = core.PIMToDRAM
	} else if *f.dir != "to" {
		fmt.Fprintf(os.Stderr, "pimmu-sim: unknown direction %q\n", *f.dir)
		os.Exit(2)
	}

	var design system.Design
	if *f.design != "all" {
		if design, err = system.ParseDesign(*f.design); err != nil {
			fmt.Fprintf(os.Stderr, "pimmu-sim: %v\n", err)
			os.Exit(2)
		}
	}
	stopProf, err := f.runner.StartProfiles()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimmu-sim: %v\n", err)
		os.Exit(2)
	}

	format, err := f.runner.Format()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pimmu-sim: %v\n", err)
		os.Exit(2)
	}
	designs := []system.Design{design}
	if *f.design == "all" {
		designs = system.Designs()
	}
	ms := measureCached(runner, designs, dir, *f.mb)
	var render func(w io.Writer)
	if *f.design == "all" {
		render = func(w io.Writer) { renderAll(w, designs, ms, dir, *f.mb) }
	} else {
		render = func(w io.Writer) { renderOne(w, design, dir, ms[0]) }
	}
	if format == "json" {
		var text strings.Builder
		render(&text)
		res, err := api.NewResult("pimmu-sim", "", ms, text.String())
		if err == nil {
			res.Op = fmt.Sprintf("xfer design=%s dir=%v mb=%d", *f.design, dir, *f.mb)
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pimmu-sim: %v\n", err)
			os.Exit(1)
		}
	} else {
		render(os.Stdout)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "pimmu-sim: %v\n", err)
		os.Exit(1)
	}
	if store != nil {
		fmt.Fprintf(os.Stderr, "pimmu-sim: cache: %v\n", store.Stats())
	}
}

// measurePlan enumerates one measurement job per design — pure planning,
// no simulation. Keys live under the pimmu-sim namespace, so the CLI's
// entries coexist with the harness experiments' in one cache directory.
func measurePlan(r *harness.Runner, designs []system.Design, dir core.Direction, mb uint64) harness.Plan {
	op := fmt.Sprintf("xfer dir=%v mb=%d", dir, mb)
	jobs := make([]harness.Job, len(designs))
	for i, d := range designs {
		jobs[i] = r.NewJob("pimmu-sim/v1", r.Config(d), op)
	}
	return harness.Plan{Experiment: "pimmu-sim", Jobs: jobs}
}

// measureCached computes the plan's measurements behind the runner's
// cache.
func measureCached(r *harness.Runner, designs []system.Design, dir core.Direction, mb uint64) []system.TransferMeasurement {
	p := measurePlan(r, designs, dir, mb)
	return harness.ComputePlan(r, p, func(i int, j harness.Job) system.TransferMeasurement {
		return system.MustNew(j.Config).MeasureTransfer(dir, mb)
	})
}

// renderAll prints the Fig. 15-style comparison of the four design
// points' measurements.
func renderAll(w io.Writer, designs []system.Design, ms []system.TransferMeasurement, dir core.Direction, mb uint64) {
	fmt.Fprintf(w, "direction   %v, %d MiB per design point\n\n", dir, mb)
	fmt.Fprintf(w, "%-12s %12s %12s %12s %12s\n",
		"design", "GB/s", "vs Base", "energy (J)", "MB/J")
	base := ms[0]
	for i, d := range designs {
		m := ms[i]
		fmt.Fprintf(w, "%-12v %12.2f %11.2fx %12.4f %12.1f\n",
			d, m.Res.Throughput()/1e9,
			m.Res.Throughput()/base.Res.Throughput(),
			m.Energy.Total(),
			energy.EfficiencyBytesPerJoule(m.Res.Bytes, m.Energy)/1e6)
	}
}

// renderOne prints the detailed single-design report.
func renderOne(w io.Writer, design system.Design, dir core.Direction, m system.TransferMeasurement) {
	res, b := m.Res, m.Energy

	fmt.Fprintf(w, "design      %v\n", design)
	fmt.Fprintf(w, "direction   %v\n", dir)
	fmt.Fprintf(w, "bytes       %d (%d MiB)\n", res.Bytes, res.Bytes>>20)
	fmt.Fprintf(w, "duration    %v\n", res.Duration)
	fmt.Fprintf(w, "throughput  %.2f GB/s\n", res.Throughput()/1e9)
	fmt.Fprintf(w, "energy      %.4f J (%.0f%% static)\n", b.Total(), 100*b.Static()/b.Total())
	fmt.Fprintf(w, "efficiency  %.1f MB/J\n", energy.EfficiencyBytesPerJoule(res.Bytes, b)/1e6)

	fmt.Fprintf(w, "DRAM        rd %d MiB, wr %d MiB\n", m.DRAMRead>>20, m.DRAMWritten>>20)
	fmt.Fprintf(w, "PIM         rd %d MiB, wr %d MiB\n", m.PIMRead>>20, m.PIMWritten>>20)
	for i, c := range m.PIMCh {
		fmt.Fprintf(w, "  pim ch%d   wr %6d KiB  row hits %.1f%%\n",
			i, c.BytesWritten>>10, 100*c.RowHitRate)
	}
}
