package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/system"
)

// cmdList prints every harness experiment with its one-line
// description.
func cmdList(args []string, w io.Writer) error {
	if err := parse(newFlags("list"), args, 0); err != nil {
		return err
	}
	for _, e := range harness.All() {
		fmt.Fprintf(w, "  %-9s %s\n", e.Name, e.Brief)
	}
	return nil
}

// cmdRun regenerates the paper's tables and figures. Quick sizes are
// the default; -full uses the paper's sizes. Each experiment's tables
// are byte-identical at any -workers count and warm or cold in the
// result cache; the `---- NAME done in ...` footer carries the wall
// time and cache tally and is not part of that artifact. Under -format
// json each experiment is one api.ExperimentResult NDJSON line and the
// footer goes to stderr.
func cmdRun(args []string, w io.Writer) (err error) {
	fs := newFlags("run")
	full := fs.Bool("full", false, "use the paper's full experiment sizes")
	rf := harness.RegisterRunnerFlags(fs)
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	exps := harness.All()
	if name := fs.Arg(0); name != "all" {
		e, err := harness.Lookup(name)
		if err != nil {
			return usageError{err: err}
		}
		exps = []harness.Experiment{e}
	}
	sc := harness.Quick
	if *full {
		sc = harness.Full
	}
	s, err := openSession(rf)
	if err != nil {
		return err
	}
	defer s.close(&err)
	for _, e := range exps {
		start, before := time.Now(), s.store.Stats()
		if s.format == "text" {
			fmt.Fprintf(w, "==== %s — %s (%s mode) ====\n", e.Name, e.Brief, sc)
		}
		res, err := harness.ComputeResult(s.runner, e, sc)
		if err != nil {
			return err
		}
		took, cache := time.Since(start).Round(time.Millisecond), s.store.Stats().Sub(before)
		switch {
		case s.format == "json":
			if err := json.NewEncoder(w).Encode(res); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "pimmu run: %s done in %v; cache: %v\n", e.Name, took, cache)
		case s.store != nil:
			fmt.Fprintf(w, "%s---- %s done in %v; cache: %v ----\n\n", res.Text, e.Name, took, cache)
		default:
			fmt.Fprintf(w, "%s---- %s done in %v ----\n\n", res.Text, e.Name, took)
		}
	}
	return nil
}

// cmdSim runs one whole-device transfer on a design point and prints
// throughput, memory-system counters and energy; with -design all it
// measures every design point and prints the ablation table.
func cmdSim(args []string, w io.Writer) error {
	fs := newFlags("sim")
	design := fs.String("design", "pim-mmu", "design point: base, base+d, base+d+h, pim-mmu, or all")
	mb := fs.Uint64("mb", 16, "total transfer size in MiB")
	dirFlag := fs.String("dir", "to", "direction: to (DRAM->PIM) or from (PIM->DRAM)")
	rf := harness.RegisterRunnerFlags(fs)
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	dir, err := parseDir(*dirFlag)
	if err != nil {
		return err
	}
	designs, err := parseDesigns(*design)
	if err != nil {
		return err
	}
	op := fmt.Sprintf("xfer dir=%v mb=%d", dir, *mb)
	return runPlan(w, rf, "pimmu-sim", fmt.Sprintf("xfer design=%s dir=%v mb=%d", *design, dir, *mb),
		func(job func(system.Design, string) harness.Job) *harness.Sweep[system.Design, system.TransferMeasurement] {
			sw := harness.NewSweep(len(designs), func(_ system.Design, s *system.System) system.TransferMeasurement {
				return s.MeasureTransfer(dir, *mb)
			})
			for _, d := range designs {
				sw.Add(job(d, op), d)
			}
			return sw
		},
		func(ms []system.TransferMeasurement) (any, func(io.Writer)) {
			return ms, func(w io.Writer) {
				if *design == "all" {
					renderAll(w, designs, ms, dir, *mb)
				} else {
					renderOne(w, designs[0], dir, ms[0])
				}
			}
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

// cmdCacheGC deletes the result-cache entries written under a different
// code version, which can never hit again under this build; valid
// entries and foreign files are left alone.
func cmdCacheGC(args []string, w io.Writer) error {
	fs := newFlags("cache-gc")
	dir := fs.String("cache-dir", "", "result-cache directory to collect")
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	if *dir == "" {
		return usageError{fmt.Errorf("-cache-dir is required"), fs}
	}
	st, err := resultcache.Prune(*dir, resultcache.CodeVersion())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "cache-gc: %v\n", st)
	return nil
}
