// Command pimmu is the simulator's command-line front end: it renders
// the paper's tables and figures, runs single transfers, records,
// generates and replays memory traces, and explains the address
// mappings and command streams. Run it without arguments for the list
// of subcommands and their flags.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/resultcache"
	"repro/internal/serve/api"
	"repro/internal/system"
)

// command is one subcommand: its name, its usage synopsis, and its
// body, which writes its report to stdout.
type command struct {
	name, synopsis string
	run            func(args []string, stdout io.Writer) error
}

// commands is the dispatch table, in usage order.
func commands() []command {
	return []command{
		{"list", "", cmdList},
		{"run", "[-full] [runner flags] <experiment>|all", cmdRun},
		{"sim", "[-design base|base+d|base+d+h|pim-mmu|all] [-mb N] [-dir to|from] [runner flags]", cmdSim},
		{"cache-gc", "-cache-dir DIR", cmdCacheGC},
		{"record", "[-design D] [-kb N] [-dir to|from] [-text] -o FILE", cmdRecord},
		{"gen", "[-pattern P] [-n N] [-gap NS] [-seed S] [-text] -o FILE", cmdGen},
		{"inspect", "[-n N] FILE", cmdInspect},
		{"replay", "[-design D|all] [-inflight N] [-noncacheable] [runner flags] FILE", cmdReplay},
		{"load", "[-process fixed|poisson|burst] [-pattern P] [-gaps NS,...] [-n N] [-slo-ns N] [-seed S] [-inflight N] [-noncacheable] [runner flags]", cmdLoad},
		{"prim", "[-scale F] [-list] <workload>", cmdPrim},
		{"map", "[-stream N] [hex address ...]", cmdMap},
		{"cmds", "[-design D] [-kb N] [-channel N] [-n N] [-side pim|dram]", cmdCmds},
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage:")
	for _, c := range commands() {
		fmt.Fprintf(os.Stderr, "  pimmu %-8s %s\n", c.name, c.synopsis)
	}
	fmt.Fprintln(os.Stderr, "runner flags: [-format text|json] [-workers N] [-cache-dir DIR] [-cache off|rw|ro] [-cpuprofile FILE] [-memprofile FILE]")
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	for _, c := range commands() {
		if c.name != os.Args[1] {
			continue
		}
		err := c.run(os.Args[2:], os.Stdout)
		var ue usageError
		switch {
		case err == nil:
			return
		case errors.As(err, &ue):
			if !errors.Is(err, flag.ErrHelp) {
				fmt.Fprintf(os.Stderr, "pimmu %s: %v\n", c.name, err)
			}
			fmt.Fprintf(os.Stderr, "usage: pimmu %s %s\n", c.name, c.synopsis)
			if ue.fs != nil {
				ue.fs.SetOutput(os.Stderr)
				ue.fs.PrintDefaults()
			}
			os.Exit(2)
		default:
			fmt.Fprintf(os.Stderr, "pimmu %s: %v\n", c.name, err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "pimmu: unknown subcommand %q\n", os.Args[1])
	usage()
	os.Exit(2)
}

// usageError is a mistake on the command line: main reports it with
// the subcommand's synopsis and exits 2. fs, when set, is the
// subcommand's flag set, whose defaults the report lists.
type usageError struct {
	err error
	fs  *flag.FlagSet
}

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usagef(format string, a ...any) error {
	return usageError{err: fmt.Errorf(format, a...)}
}

// newFlags is a subcommand's flag set; its errors reach main through
// parse rather than being printed here.
func newFlags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("pimmu "+name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// parse parses args into fs and checks that want positional arguments
// remain (any number when want < 0).
func parse(fs *flag.FlagSet, args []string, want int) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err, fs}
	}
	if want >= 0 && fs.NArg() != want {
		return usageError{fmt.Errorf("want %d argument(s), got %q", want, fs.Args()), fs}
	}
	return nil
}

// parseDesigns resolves a -design value: one design point, or all four
// for "all".
func parseDesigns(s string) ([]system.Design, error) {
	if s == "all" {
		return system.Designs(), nil
	}
	d, err := system.ParseDesign(s)
	if err != nil {
		return nil, usageError{err: err}
	}
	return []system.Design{d}, nil
}

// parseDir resolves a -dir value.
func parseDir(s string) (core.Direction, error) {
	switch s {
	case "to":
		return core.DRAMToPIM, nil
	case "from":
		return core.PIMToDRAM, nil
	}
	return 0, usagef("unknown direction %q", s)
}

// transferSize converts a size flag's value n, in units of 1<<shift
// bytes, to the total size of a whole-device transfer. A size of zero,
// one the unit shift overflows, or one checkTransfers rejects on a fresh
// machine of any design in designs is a usage error.
func transferSize(flag string, n uint64, shift uint, designs ...system.Design) (uint64, error) {
	if n == 0 || n > math.MaxUint64>>shift {
		return 0, usagef("-%s %d: want a size in [1, %d]", flag, n, uint64(math.MaxUint64)>>shift)
	}
	for _, d := range designs {
		cfg := system.DefaultConfig(d)
		if err := checkTransfers(cfg, cfg.PerCoreBytes(n<<shift)); err != nil {
			return 0, usagef("-%s %d: %v", flag, n, err)
		}
	}
	return n << shift, nil
}

// checkTransfers reports why whole-device transfers of perCore bytes to
// or from each PIM core cannot run one after another on a fresh machine
// of cfg: a share above a PIM core's MRAM, or source buffers that
// together pass the end of the DRAM region.
func checkTransfers(cfg system.Config, perCore ...uint64) error {
	mram, dram := cfg.PIM.MRAMBytes(), cfg.Mem.DRAM.Geometry.TotalBytes()
	var buf uint64
	for _, b := range perCore {
		if b > mram {
			return fmt.Errorf("%d B per PIM core exceeds its %d B of MRAM", b, mram)
		}
		buf += b * uint64(cfg.PIM.NumCores())
	}
	if buf > dram {
		return fmt.Errorf("%d B of source buffers exceed the %d B DRAM region", buf, dram)
	}
	return nil
}

// printHeadTail lists the first and the last n items of xs, one per
// line, with "..." between them; when 2n covers xs it lists them all
// under the head. A negative n counts as 0.
func printHeadTail[T any](w io.Writer, xs []T, n int) {
	n = max(n, 0)
	fmt.Fprintln(w, "-- head --")
	if len(xs) <= 2*n {
		n = len(xs)
	}
	for _, x := range xs[:n] {
		fmt.Fprintln(w, " ", x)
	}
	if n < len(xs) {
		fmt.Fprintln(w, "  ...")
		fmt.Fprintln(w, "-- tail --")
		for _, x := range xs[len(xs)-n:] {
			fmt.Fprintln(w, " ", x)
		}
	}
}

// session is what the Runner flags of run, sim, replay and load resolve
// to: the runner with its result cache, the output format, and the
// running profiles.
type session struct {
	runner   *harness.Runner
	store    *resultcache.Store
	format   string
	stopProf func() error
}

func openSession(f *harness.RunnerFlags) (*session, error) {
	runner, store, err := f.Runner()
	if err != nil {
		return nil, usageError{err: err}
	}
	format, err := f.Format()
	if err != nil {
		return nil, usageError{err: err}
	}
	stop, err := f.StartProfiles()
	if err != nil {
		return nil, err
	}
	return &session{runner, store, format, stop}, nil
}

// close stops the profiles, reports the cache's hit/miss tally on
// stderr, and keeps the first error in *err.
func (s *session) close(err *error) {
	if perr := s.stopProf(); *err == nil {
		*err = perr
	}
	if s.store != nil {
		fmt.Fprintf(os.Stderr, "pimmu: cache: %v\n", s.store.Stats())
	}
}

// runPlan is the shared body of sim, replay and load. plan builds the
// subcommand's sweep from job, which keys a design point and an op
// string under the cache-key namespace name + "/v1"; runPlan computes
// it behind the runner's cache and hands the results to report, which
// returns the structured results and their text render. Under -format
// text the render goes to w; under -format json both go out as one
// api.ExperimentResult NDJSON line labelled name and op — the wire
// shape pimmu-serve returns.
func runPlan[P, R any](w io.Writer, f *harness.RunnerFlags, name, op string,
	plan func(job func(d system.Design, op string) harness.Job) *harness.Sweep[P, R],
	report func(rs []R) (results any, render func(io.Writer))) (err error) {
	s, err := openSession(f)
	if err != nil {
		return err
	}
	defer s.close(&err)
	sw := plan(func(d system.Design, op string) harness.Job {
		return s.runner.NewJob(name+"/v1", system.DefaultConfig(d), op)
	})
	results, render := report(sw.Compute(s.runner))
	if s.format != "json" {
		render(w)
		return nil
	}
	var text strings.Builder
	render(&text)
	res, err := api.NewResult(name, "", results, text.String())
	if err != nil {
		return err
	}
	res.Op = op
	return json.NewEncoder(w).Encode(res)
}
