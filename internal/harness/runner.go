// Runner, Job, Plan and Sweep: the execution side of the
// plan/compute/render split. This file and the compute*.go files are
// the only harness files allowed to import internal/system (enforced by
// cmd/pimmu-lint): a sweep's plan enumerates configs, its compute
// simulates them, and rendering never sees a machine at all.

package harness

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/resultcache"
	"repro/internal/sweep"
	"repro/internal/system"
)

// Runner carries every knob that used to live in package-global setters:
// the sweep worker count and the result cache fronting compute. The
// CLIs construct one Runner per invocation and thread it through all
// three experiment phases; tests build their own. Every machine a
// harness job builds runs on the plain event engine.
type Runner struct {
	// Workers caps the sweep worker pool for this runner's computes
	// (<= 0 selects GOMAXPROCS).
	Workers int
	// Cache, when non-nil, fronts every compute with the
	// content-addressed result store: a hit is byte-identical to the
	// computation it replaces, so rendered tables are the same bytes
	// warm or cold.
	Cache sweep.Cache
}

// Job is one plan-addressable unit of simulation: the machine
// configuration to build, the op string naming the simulation's
// non-config inputs (direction, size, per-core volumes, scale-dependent
// parameters; never the figure that reads the result), and the
// content-addressed cache key binding both to the code version.
type Job struct {
	Key    string
	Config system.Config
	Op     string
}

// Plan is the pure enumeration of an experiment's jobs — no simulation
// happens while building one. Plans make an experiment addressable
// data: cache hit/miss accounting, GC, and remote dispatch all operate
// on the enumerated keys instead of opaque closures.
type Plan struct {
	Experiment string
	Jobs       []Job
}

// NewJob builds one plan job from an explicit configuration: the key
// binds keyPrefix (a versioned namespace such as "harness/v1"), the
// code-version stamp, the config fingerprint, and op.
func (r *Runner) NewJob(keyPrefix string, cfg system.Config, op string) Job {
	return Job{
		Key:    resultcache.KeyOf(keyPrefix, resultcache.CodeVersion(), cfg.Fingerprint(), op),
		Config: cfg,
		Op:     op,
	}
}

// job is NewJob at a default-config design point under the harness
// namespace — the common case for experiment plans.
func (r *Runner) job(d system.Design, op string) Job {
	return r.NewJob("harness/v1", system.DefaultConfig(d), op)
}

// Sweep is one experiment's job list: the planned jobs, one parameter
// value per job, and the single run that simulates a job's parameters
// on a fresh machine built from the job's config. Plan and compute both
// read it, so compute runs exactly the planned jobs.
type Sweep[P, R any] struct {
	Plan
	params []P
	run    func(P, *system.System) R
}

// NewSweep starts an empty sweep with room for n jobs, all run by run.
func NewSweep[P, R any](n int, run func(P, *system.System) R) *Sweep[P, R] {
	return &Sweep[P, R]{Plan: Plan{Jobs: make([]Job, 0, n)}, params: make([]P, 0, n), run: run}
}

// Add appends one job and the parameters its run receives.
func (s *Sweep[P, R]) Add(j Job, p P) {
	s.Jobs = append(s.Jobs, j)
	s.params = append(s.params, p)
}

// Compute executes the sweep through the runner's cache and worker
// pool: job i's result is served from the cache when a valid entry
// exists under its key, and simulated once per distinct key otherwise.
// Results round-trip through gob, so R must be a pure gob-able type —
// which is also what makes it renderable without re-simulation.
func (s *Sweep[P, R]) Compute(r *Runner) []R {
	return sweep.MapCachedN(r.Cache, len(s.Jobs), r.Workers,
		func(i int) string { return s.Jobs[i].Key },
		func(i int) R { return s.run(s.params[i], system.MustNew(s.Jobs[i].Config)) })
}

// ResolveTopology parses an engine-class selection in flag syntax (a
// count or "auto"; empty selects the plain engine) into a
// system.Config.Shards value. The end-to-end benchmark under bench/ is
// its only caller: no harness experiment, CLI or serve request picks an
// engine class. coreLanes is ignored; cl is always 0 and warns nil.
func ResolveTopology(shards, coreLanes string) (sh, cl int, warns []string, err error) {
	if shards == "" {
		shards = "0"
	}
	if sh, err = system.ParseLaneFlag(shards); err != nil {
		return 0, 0, nil, fmt.Errorf("shards: %w", err)
	}
	cfg := system.DefaultConfig(system.PIMMMU)
	cfg.Shards = sh
	if err = cfg.Validate(); err != nil {
		return 0, 0, nil, fmt.Errorf("shards: %w", err)
	}
	return sh, 0, nil, nil
}

// RunnerFlags holds the parsed-but-unresolved shared CLI flags; call
// Runner after FlagSet.Parse to resolve them.
type RunnerFlags struct {
	workers                *int
	cacheDir, cacheMode    *string
	cpuProfile, memProfile *string
	format                 *string
}

// RegisterRunnerFlags registers the worker, result-cache, profiling
// and output-format flags shared by the pimmu run, sim, replay and load
// subcommands on fs.
func RegisterRunnerFlags(fs *flag.FlagSet) *RunnerFlags {
	f := &RunnerFlags{}
	f.workers = fs.Int("workers", 0, "parallel simulations per sweep (0 = all cores, 1 = serial)")
	f.cacheDir = fs.String("cache-dir", "", "result-cache directory (empty = caching off)")
	f.cacheMode = fs.String("cache", "rw", "result-cache mode: off, rw, or ro")
	f.cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	f.memProfile = fs.String("memprofile", "", "write a live-heap profile at exit to this file (go tool pprof)")
	f.format = fs.String("format", "text", "result format: text (the rendered tables) or json (one serve/api ExperimentResult per experiment, NDJSON)")
	return f
}

// Format resolves the parsed -format flag: "text" or "json".
func (f *RunnerFlags) Format() (string, error) {
	switch *f.format {
	case "text", "json":
		return *f.format, nil
	}
	return "", fmt.Errorf("-format: %q (want %q or %q)", *f.format, "text", "json")
}

// StartProfiles starts the profiling requested by -cpuprofile and
// -memprofile. The returned stop finishes both: it halts the CPU
// profile, and — after a GC so the numbers describe live memory, not
// garbage awaiting collection — writes the heap profile. stop is never
// nil and is a no-op when neither flag was given; call it exactly once,
// normally deferred around the measured work.
func (f *RunnerFlags) StartProfiles() (stop func() error, err error) {
	var cpu *os.File
	if *f.cpuProfile != "" {
		cpu, err = os.Create(*f.cpuProfile)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	memPath := *f.memProfile
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		mf, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(mf); err != nil {
			mf.Close()
			return fmt.Errorf("-memprofile: %w", err)
		}
		if err := mf.Close(); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		return nil
	}, nil
}

// Runner resolves the parsed flags into a Runner and its backing store
// (nil when caching is off). On error the Runner is nil.
func (f *RunnerFlags) Runner() (*Runner, *resultcache.Store, error) {
	store, err := resultcache.OpenFlags(*f.cacheDir, *f.cacheMode)
	if err != nil {
		return nil, nil, err
	}
	r := &Runner{Workers: *f.workers}
	if store != nil {
		// A nil *Store must not become a non-nil sweep.Cache interface.
		r.Cache = store
	}
	return r, store, nil
}
