// Package harness regenerates every table and figure of the paper's
// evaluation (Section VI). Each experiment is split into three explicit
// phases behind one declarative type:
//
//   - Plan enumerates the experiment's jobs — (config, op, cache key)
//     triples — without simulating anything;
//   - Compute executes the plan through the sweep layer and the result
//     cache, returning pure gob-able results (the only phase that
//     touches internal/system);
//   - Render writes the deterministic text artifact from results alone.
//
// Execution state (engine class, worker count, result cache) lives in
// a Runner threaded explicitly through all three phases; cmd/pimmu
// constructs one per invocation. The split makes an experiment
// addressable data: "serve experiment X at design point Y" is a plan
// lookup plus a compute, not a rewrite.
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
// phases. Compute's result is the value Render consumes; the typed pair
// is wired through the exp constructor, so a registry entry cannot mix
// a compute with a renderer of another experiment's result type.
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

// exp wires one experiment's typed compute/render pair into the
// registry entry.
func exp[R any](name, brief string,
	plan func(*Runner, Scale) Plan,
	compute func(*Runner, Scale) R,
	render func(io.Writer, Scale, R)) Experiment {
	return Experiment{
		Name:    name,
		Brief:   brief,
		Plan:    plan,
		Compute: func(r *Runner, sc Scale) any { return compute(r, sc) },
		Render:  func(w io.Writer, sc Scale, results any) { render(w, sc, results.(R)) },
	}
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		exp("table1", "system configuration (Table I)", table1Plan, table1Compute, table1Render),
		exp("fig4", "CPU utilization & power during transfers (Fig. 4)", fig4Plan, fig4Compute, fig4Render),
		exp("fig6", "per-channel write-throughput breakdown (Fig. 6)", fig6Plan, fig6Compute, fig6Render),
		exp("fig8", "DRAM bandwidth: locality vs MLP mapping (Fig. 8)", fig8Plan, fig8Compute, fig8Render),
		exp("fig13a", "compute-contender sensitivity (Fig. 13a)", fig13aPlan, fig13aCompute, fig13aRender),
		exp("fig13b", "memory-contender sensitivity (Fig. 13b)", fig13bPlan, fig13bCompute, fig13bRender),
		exp("fig14", "DRAM->DRAM memcpy throughput (Fig. 14)", fig14Plan, fig14Compute, fig14Render),
		exp("fig15a", "ablation: transfer throughput (Fig. 15a)", fig15aPlan, fig15aCompute, fig15aRender),
		exp("fig15b", "ablation: energy (Fig. 15b)", fig15bPlan, fig15bCompute, fig15bRender),
		exp("fig16", "PrIM end-to-end breakdown (Fig. 16)", fig16Plan, fig16Compute, fig16Render),
		exp("area", "implementation overhead (Section VI-C)", areaPlan, areaCompute, areaRender),
		exp("headline", "headline speedups (abstract numbers)", headlinePlan, headlineCompute, headlineRender),
		exp("replay", "trace-driven workload replay (bandwidth/latency)", replayPlan, replayCompute, replayRender),
		exp("loadcurve", "open-loop latency vs offered load (SLO knee)", loadCurvePlan, loadCurveCompute, loadCurveRender),
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
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// gb formats bytes/sec.
func gb(v float64) string { return fmt.Sprintf("%.2f", v/1e9) }

// ratio formats a multiplier.
func ratio(v float64) string { return fmt.Sprintf("%.2fx", v) }
