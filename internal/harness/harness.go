// Package harness regenerates every table and figure of the paper's
// evaluation (Section VI). Each simulated experiment is declared by one
// function that builds its Sweep — the job list and the one run that
// simulates a job — and the three phases behind the Experiment type
// derive from it:
//
//   - Plan is the sweep's jobs — (config, op, cache key) triples —
//     enumerated without simulating anything. An op names the
//     simulation, not the figure, so fig15a, fig15b and headline share
//     their jobs;
//   - Compute is the sweep's runs, executed through the sweep layer and
//     the result cache once per distinct key, returning pure gob-able
//     results (the only phase that touches internal/system);
//   - Render writes the deterministic text artifact from results alone.
//
// Because plan and compute read the same sweep, compute runs exactly
// the planned jobs. Execution state (worker count, result cache) lives
// in a Runner threaded explicitly through all three phases; cmd/pimmu
// constructs one per invocation. Every job's machine runs on the plain
// event engine. The split makes an experiment addressable data: "serve
// experiment X at design point Y" is a plan lookup plus a compute, not
// a rewrite.
//
// Quick mode shrinks transfer sizes so the full suite completes in
// minutes on a laptop; the shapes (who wins, by what factor) are the
// same, only tails and asymptotes move slightly.
package harness

import (
	"fmt"
	"io"
)

// Scale selects experiment sizing.
type Scale int

const (
	// Quick shrinks sizes for fast iteration (default).
	Quick Scale = iota
	// Full uses the paper's sizes (1 MB - 256 MB sweeps, full PrIM).
	Full
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	if s == Full {
		return "full"
	}
	return "quick"
}

// Experiment names one reproducible artifact and carries its three
// phases. Every simulated experiment is declared by one function that
// builds its Sweep; exp derives Plan and Compute from that sweep and
// pairs Compute's result with the typed renderer, so a registry entry
// cannot compute jobs its plan did not list, nor mix a compute with a
// renderer of another experiment's result type.
type Experiment struct {
	Name  string
	Brief string
	// Plan enumerates the experiment's jobs without simulating. Static
	// experiments (table1, area) plan zero jobs.
	Plan func(r *Runner, sc Scale) Plan
	// Compute executes the plan's simulations and returns the pure,
	// gob-able results the renderer consumes.
	Compute func(r *Runner, sc Scale) any
	// Render writes the deterministic text artifact from results alone.
	Render func(w io.Writer, sc Scale, results any)
}

// exp wires one simulated experiment: its plan is the sweep's job list
// and its compute runs exactly those jobs.
func exp[P, R any](name, brief string,
	build func(*Runner, Scale) *Sweep[P, R],
	render func(io.Writer, Scale, []R)) Experiment {
	return expView(name, brief, build, func(_ Scale, rs []R) []R { return rs }, render)
}

// expView is exp for an experiment that publishes view(its scale, its
// sweep's results) and renders that.
func expView[P, R, V any](name, brief string,
	build func(*Runner, Scale) *Sweep[P, R],
	view func(Scale, []R) V,
	render func(io.Writer, Scale, V)) Experiment {
	return Experiment{
		Name:  name,
		Brief: brief,
		Plan: func(r *Runner, sc Scale) Plan {
			p := build(r, sc).Plan
			p.Experiment = name
			return p
		},
		Compute: func(r *Runner, sc Scale) any { return view(sc, build(r, sc).Compute(r)) },
		Render:  func(w io.Writer, sc Scale, results any) { render(w, sc, results.(V)) },
	}
}

// static wires one configuration snapshot: it plans zero jobs and its
// compute reads the default configuration without simulating.
func static[R any](name, brief string, data func() R, render func(io.Writer, Scale, R)) Experiment {
	return Experiment{
		Name:    name,
		Brief:   brief,
		Plan:    func(*Runner, Scale) Plan { return Plan{Experiment: name} },
		Compute: func(*Runner, Scale) any { return data() },
		Render:  func(w io.Writer, sc Scale, results any) { render(w, sc, results.(R)) },
	}
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		static("table1", "system configuration (Table I)", table1Data, table1Render),
		exp("fig4", "CPU utilization & power during transfers (Fig. 4)", fig4Sweep, fig4Render),
		exp("fig6", "per-channel write-throughput breakdown (Fig. 6)", fig6Sweep, fig6Render),
		exp("fig8", "DRAM bandwidth: locality vs MLP mapping (Fig. 8)", fig8Sweep, fig8Render),
		exp("fig13a", "compute-contender sensitivity (Fig. 13a)", fig13aSweep, fig13aRender),
		exp("fig13b", "memory-contender sensitivity (Fig. 13b)", fig13bSweep, fig13bRender),
		exp("fig14", "DRAM->DRAM memcpy throughput (Fig. 14)", fig14Sweep, fig14Render),
		exp("fig15a", "ablation: transfer throughput (Fig. 15a)", fig15Sweep, fig15aRender),
		exp("fig15b", "ablation: energy (Fig. 15b)", fig15Sweep, fig15bRender),
		expView("fig16", "PrIM end-to-end breakdown (Fig. 16)", fig16Sweep, fig16Phases, fig16Render),
		static("area", "implementation overhead (Section VI-C)", areaData, areaRender),
		expView("headline", "headline speedups (abstract numbers)", headlineSweep, headlinePoints, headlineRender),
		exp("replay", "trace-driven workload replay (bandwidth/latency)", replaySweep, replayRender),
		exp("loadcurve", "open-loop latency vs offered load (SLO knee)", loadCurveSweep, loadCurveRender),
	}
}

// ByName finds an experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Lookup is ByName with near-miss reporting: an unknown name's error
// suggests the closest experiment when one is plausibly close.
func Lookup(name string) (Experiment, error) {
	if e, ok := ByName(name); ok {
		return e, nil
	}
	if s := suggest(name); s != "" {
		return Experiment{}, fmt.Errorf("unknown experiment %q (did you mean %q?)", name, s)
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (try 'list')", name)
}

// suggest names the experiment closest to name within edit distance 2,
// or "" when nothing is near enough to be a plausible typo.
func suggest(name string) string {
	best, bestDist := "", 3
	for _, e := range All() {
		if d := editDistance(name, e.Name); d < bestDist {
			best, bestDist = e.Name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// gb formats bytes/sec.
func gb(v float64) string { return fmt.Sprintf("%.2f", v/1e9) }

// ratio formats a multiplier.
func ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }
