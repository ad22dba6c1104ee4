package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/clock"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/resultcache"
	"repro/internal/system"
	"repro/internal/trace"
)

// cmdRecord runs one transfer with a recorder tapped onto the memory
// port of the chosen design and writes every request it presents.
func cmdRecord(args []string, w io.Writer) error {
	fs := newFlags("record")
	designFlag := fs.String("design", "pim-mmu", "design point: base, base+d, base+d+h, pim-mmu")
	kb := fs.Uint64("kb", 256, "total transfer size in KiB")
	dirFlag := fs.String("dir", "to", "direction: to (DRAM->PIM) or from (PIM->DRAM)")
	out := fs.String("o", "", "output trace file (required)")
	text := fs.Bool("text", false, "write the human-readable text form")
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	if *out == "" {
		return usageError{fmt.Errorf("-o FILE is required"), fs}
	}
	design, err := system.ParseDesign(*designFlag)
	if err != nil {
		return usageError{err: err}
	}
	dir, err := parseDir(*dirFlag)
	if err != nil {
		return err
	}
	bytes, err := transferSize("kb", *kb, 10, design)
	if err != nil {
		return err
	}

	s := system.MustNew(system.DefaultConfig(design))
	rec := s.RecordTrace()
	res := s.MeasureTransfer(dir, bytes).Res
	s.StopTrace()

	if err := trace.WriteFile(*out, rec.Records(), *text); err != nil {
		return err
	}
	fmt.Fprintf(w, "recorded %d requests over %v (%v, %v, %.2f GB/s) -> %s\n",
		rec.Len(), trace.Duration(rec.Records()), design, dir, res.Throughput()/1e9, *out)
	return nil
}

// cmdGen synthesizes one of the built-in application patterns and
// writes it.
func cmdGen(args []string, w io.Writer) error {
	fs := newFlags("gen")
	pattern := fs.String("pattern", "stream", "stream, strided, chase, mixed, or zipf")
	n := fs.Int("n", 1<<14, "records to generate")
	gapNS := fs.Int64("gap", 1, "inter-arrival gap in nanoseconds")
	seed := fs.Uint64("seed", 1, "PRNG seed for the randomized patterns")
	out := fs.String("o", "", "output trace file (required)")
	text := fs.Bool("text", false, "write the human-readable text form")
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	if *out == "" {
		return usageError{fmt.Errorf("-o FILE is required"), fs}
	}
	if *gapNS < 0 || *gapNS > math.MaxInt64/int64(clock.Nanosecond) {
		return usagef("-gap %d ns outside [0, %d]", *gapNS, math.MaxInt64/int64(clock.Nanosecond))
	}
	cfg := trace.DefaultGenConfig()
	cfg.Records = *n
	cfg.Gap = clock.Picos(*gapNS) * clock.Nanosecond
	cfg.Seed = *seed
	recs, err := trace.Generate(trace.Pattern(*pattern), cfg)
	if err != nil {
		return usageError{err: err}
	}
	if err := trace.WriteFile(*out, recs, *text); err != nil {
		return err
	}
	sum := trace.Summarize(recs)
	fmt.Fprintf(w, "generated %s: %d records, %d reads / %d writes, %v span -> %s\n",
		*pattern, sum.Records, sum.Reads, sum.Writes, sum.Duration, *out)
	return nil
}

// cmdInspect prints a trace's summary and its head and tail records.
func cmdInspect(args []string, w io.Writer) error {
	fs := newFlags("inspect")
	n := fs.Int("n", 8, "records to print from head and tail")
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	recs, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	sum := trace.Summarize(recs)
	fmt.Fprintf(w, "records   %d (%d reads, %d writes, %d PIM-region)\n",
		sum.Records, sum.Reads, sum.Writes, sum.PIMRecords)
	fmt.Fprintf(w, "bytes     %d read, %d written\n", sum.BytesRead, sum.BytesWritten)
	fmt.Fprintf(w, "span      %v issue window\n", sum.Duration)
	fmt.Fprintf(w, "addresses 0x%x .. 0x%x\n", sum.MinAddr, sum.MaxAddr)
	printHeadTail(w, recs, *n)
	return nil
}

// portFlags are the memory-port knobs replay and load add to the
// Runner flags.
type portFlags struct {
	inflight *int
	noncache *bool
	runner   *harness.RunnerFlags
}

func registerPortFlags(fs *flag.FlagSet) portFlags {
	return portFlags{
		inflight: fs.Int("inflight", 64, "max outstanding line requests"),
		noncache: fs.Bool("noncacheable", false, "bypass the LLC for DRAM-region requests"),
		runner:   harness.RegisterRunnerFlags(fs),
	}
}

// cmdReplay injects a trace into a fresh machine of one design point,
// or of every design point with -design all, at its recorded
// inter-arrival times and reports bandwidth and latency. A result is
// cached under the trace's identity — a digest of the records' binary
// encoding — so the same workload hits whichever form it is stored in.
func cmdReplay(args []string, w io.Writer) error {
	fs := newFlags("replay")
	designFlag := fs.String("design", "pim-mmu", "design point, or all")
	pf := registerPortFlags(fs)
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	designs, err := parseDesigns(*designFlag)
	if err != nil {
		return err
	}
	cfg := trace.DriverConfig{Process: trace.ProcessReplay, MaxInFlight: *pf.inflight, Cacheable: !*pf.noncache}
	if err := cfg.Validate(); err != nil {
		return usageError{err: err}
	}
	recs, err := trace.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	h := sha256.New()
	if err := trace.Encode(h, recs); err != nil {
		return fmt.Errorf("fingerprinting trace: %w", err)
	}
	op := fmt.Sprintf("trace=%s rcfg=%s", hex.EncodeToString(h.Sum(nil)), resultcache.Canonical(cfg))
	label := "design=all " + op
	if *designFlag != "all" {
		label = fmt.Sprintf("design=%v %s", designs[0], op)
	}
	return runPlan(w, pf.runner, "pimmu-replay", label,
		func(job func(system.Design, string) harness.Job) *harness.Sweep[system.Design, trace.LoadResult] {
			sw := harness.NewSweep(len(designs), func(_ system.Design, s *system.System) trace.LoadResult {
				r, err := s.RunLoad(recs, cfg)
				if err != nil {
					panic(err)
				}
				return r
			})
			for _, d := range designs {
				sw.Add(job(d, op), d)
			}
			return sw
		},
		func(rs []trace.LoadResult) (any, func(io.Writer)) {
			if *designFlag != "all" {
				return rs[0], func(w io.Writer) { renderReplay(w, designs[0], len(recs), rs[0]) }
			}
			return rs, func(w io.Writer) {
				fmt.Fprintf(w, "%d records, max %d in flight\n\n", len(recs), cfg.MaxInFlight)
				fmt.Fprintf(w, "%-12s %12s %12s %18s %12s %12s\n",
					"design", "GB/s", "avg (ns)", "p50/p95/p99 (ns)", "retries", "slip")
				for i, d := range designs {
					r := rs[i]
					fmt.Fprintf(w, "%-12v %12.2f %12.0f %18s %12d %12v\n",
						d, r.Throughput()/1e9, r.AvgService().Nanoseconds(),
						fmt.Sprintf("%.0f/%.0f/%.0f",
							r.Service.P50().Nanoseconds(), r.Service.P95().Nanoseconds(), r.Service.P99().Nanoseconds()),
						r.Retries, r.Slip)
				}
			}
		})
}

// renderReplay prints the detailed report of one design's replay.
func renderReplay(w io.Writer, design system.Design, records int, r trace.LoadResult) {
	fmt.Fprintf(w, "design     %v\n", design)
	fmt.Fprintf(w, "records    %d (%d line requests)\n", records, r.Issued)
	fmt.Fprintf(w, "bytes      %d read, %d written\n", r.BytesRead, r.BytesWritten)
	fmt.Fprintf(w, "duration   %v\n", r.Duration())
	fmt.Fprintf(w, "throughput %.2f GB/s\n", r.Throughput()/1e9)
	fmt.Fprintf(w, "latency    %v avg, p50 <= %v, p95 <= %v, p99 <= %v\n",
		r.AvgService(), r.Service.P50(), r.Service.P95(), r.Service.P99())
	fmt.Fprintf(w, "pressure   %d retries, %v max slip behind the trace clock\n", r.Retries, r.Slip)
}

// cmdLoad sweeps an open-loop arrival process over an offered-load
// axis on Base and PIM-MMU. Unlike replay, arrivals accrue on the
// simulated clock regardless of memory backpressure, so each point
// reports the end-to-end latency tail and the p99 queueing delay at
// that load, plus the SLO knee: the highest offered load whose p99
// meets -slo-ns.
func cmdLoad(args []string, w io.Writer) error {
	fs := newFlags("load")
	process := fs.String("process", "poisson", "arrival process: fixed, poisson, or burst")
	pattern := fs.String("pattern", "mixed", "address pattern: stream, strided, chase, mixed, or zipf")
	gapsFlag := fs.String("gaps", "32,16,8,4,2,1", "offered-load axis as mean inter-arrival gaps in ns (one 64 B line per gap)")
	n := fs.Int("n", 1<<13, "arrivals per load point")
	sloNS := fs.Int64("slo-ns", 2000, "latency SLO on the p99 end-to-end latency, in ns")
	seed := fs.Uint64("seed", 1, "PRNG seed for the pattern and the poisson process")
	pf := registerPortFlags(fs)
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	gaps, err := parseGaps(*gapsFlag)
	if err != nil {
		return usageError{err: err}
	}
	if *n <= 0 {
		return usagef("non-positive arrival count %d", *n)
	}
	if !slices.Contains(trace.Patterns(), trace.Pattern(*pattern)) {
		return usagef("unknown pattern %q", *pattern)
	}
	if trace.Process(*process) == trace.ProcessReplay {
		return usagef("-process replay needs a trace; use pimmu replay FILE")
	}
	slo := clock.Picos(*sloNS) * clock.Nanosecond

	gcfg := trace.DefaultGenConfig()
	gcfg.FootprintLines = 1 << 18 // 16 MiB: past the LLC, so DRAM decides
	gcfg.Seed = *seed
	dcfgAt := func(gap clock.Picos) trace.DriverConfig {
		dcfg := trace.DefaultDriverConfig()
		dcfg.Process = trace.Process(*process)
		dcfg.MeanGap = gap
		dcfg.Duration = gap * clock.Picos(*n)
		dcfg.Seed = *seed
		dcfg.MaxInFlight = *pf.inflight
		dcfg.Cacheable = !*pf.noncache
		return dcfg
	}
	for _, gap := range gaps {
		if gap > math.MaxInt64/clock.Picos(*n) {
			return usagef("%d arrivals at gap %dps overflow the picosecond clock", *n, int64(gap))
		}
		if err := dcfgAt(gap).Validate(); err != nil {
			return usageError{err: err}
		}
	}

	designs := []system.Design{system.Base, system.PIMMMU}
	label := fmt.Sprintf("process=%s pattern=%s n=%d slo-ns=%d gaps=%s seed=%d",
		*process, *pattern, *n, *sloNS, *gapsFlag, *seed)
	return runPlan(w, pf.runner, "pimmu-load", label,
		func(job func(system.Design, string) harness.Job) *harness.Sweep[trace.DriverConfig, trace.LoadResult] {
			sw := harness.NewSweep(len(gaps)*len(designs), func(dcfg trace.DriverConfig, s *system.System) trace.LoadResult {
				g := gcfg
				g.Base = s.Alloc(g.FootprintBytes(trace.Pattern(*pattern)))
				recs, err := trace.Generate(trace.Pattern(*pattern), g)
				if err != nil {
					panic(err)
				}
				r, err := s.RunLoad(recs, dcfg)
				if err != nil {
					panic(err)
				}
				return r
			})
			gen := resultcache.Canonical(gcfg)
			for _, gap := range gaps {
				dcfg := dcfgAt(gap)
				op := fmt.Sprintf("pattern=%s gen=%s dcfg=%s", *pattern, gen, resultcache.Canonical(dcfg))
				for _, d := range designs {
					sw.Add(job(d, op), dcfg)
				}
			}
			return sw
		},
		func(rs []trace.LoadResult) (any, func(io.Writer)) {
			return rs, func(w io.Writer) {
				fmt.Fprintf(w, "%s arrivals, %s pattern, %d arrivals/point, max %d in flight\n\n",
					*process, *pattern, *n, *pf.inflight)
				fmt.Fprintf(w, "%-16s %24s %24s %16s %16s\n", "offered (GB/s)",
					"Base p50/p99/p99.9 (ns)", "PIM-MMU p50/p99/p99.9 (ns)",
					"Base q99 (ns)", "PIM-MMU q99 (ns)")
				knee := make([]clock.Picos, len(designs))
				for gi, gap := range gaps {
					b, m := rs[gi*len(designs)], rs[gi*len(designs)+1]
					fmt.Fprintf(w, "%-16.2f %24s %24s %16.0f %16.0f\n",
						dcfgAt(gap).OfferedLoad()/1e9,
						tail999(&b.Total), tail999(&m.Total),
						b.Queue.P99().Nanoseconds(), m.Queue.P99().Nanoseconds())
					for di := range designs {
						r := rs[gi*len(designs)+di]
						if r.Total.P99() <= slo && (knee[di] == 0 || gap < knee[di]) {
							knee[di] = gap
						}
					}
				}
				fmt.Fprintf(w, "\nmax load @ p99 <= %v: Base %s, PIM-MMU %s\n",
					slo, kneeGBs(knee[0]), kneeGBs(knee[1]))
			}
		})
}

// parseGaps parses the comma-separated -gaps axis (nanoseconds). Every
// gap must be positive and, in picoseconds, below MaxInt64; the
// comparison also rejects NaN and infinities.
func parseGaps(s string) ([]clock.Picos, error) {
	var gaps []clock.Picos
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		ps := v * float64(clock.Nanosecond)
		if err != nil || !(v > 0 && ps < math.MaxInt64) {
			return nil, fmt.Errorf("bad gap %q in -gaps", f)
		}
		gaps = append(gaps, clock.Picos(ps))
	}
	return gaps, nil
}

// tail999 renders p50/p99/p99.9 bucket upper bounds in whole ns.
func tail999(h *trace.LatencyHist) string {
	return fmt.Sprintf("%.0f/%.0f/%.0f",
		h.P50().Nanoseconds(), h.P99().Nanoseconds(), h.P999().Nanoseconds())
}

// kneeGBs renders one design's SLO knee as its offered load, or "-"
// when no point on the axis met the objective.
func kneeGBs(gap clock.Picos) string {
	if gap == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f GB/s", float64(mem.LineBytes)/gap.Seconds()/1e9)
}
