// Paper claims: the shape each render states in prose, checked on the
// experiment's typed results. A view reads the results into named series
// with the grid helpers the renderer uses; a claim is an ordering, a band
// around a paper value, or a monotonicity over those series, stated from
// the paper's number. Where the model departs from the paper, a named
// deviation records both values, and the claims check the weaker shape
// the model does meet. The static experiments' claims run here; the
// simulated ones run in the slow tier (claims_slow_test.go).

package harness

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// paperBand is how close a model value must come to an approximate
// ("~x") paper value.
const paperBand = 0.10

// view is an experiment's results as named series. get also accepts
// "max S", "mean S" and "min S" (a one-point series) and a number (that
// constant at every point).
type view map[string][]float64

func (v view) get(s string) []float64 {
	if xs, ok := v[s]; ok {
		return xs
	}
	for prefix, stat := range map[string]func([]float64) float64{"max ": stats.Max, "mean ": stats.Mean, "min ": slices.Min[[]float64]} {
		if rest, ok := strings.CutPrefix(s, prefix); ok {
			return []float64{stat(v.get(rest))}
		}
	}
	c, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic("view has no series " + s)
	}
	return []float64{c}
}

// claim is one statement of the paper's shape.
type claim struct {
	name  string
	check func(view) error
}

// deviation is a named departure from the paper. The model value is what
// format prints for each point of series (joined by "/") at quick scale;
// the check keeps it true, so a model change re-records or retires it.
type deviation struct {
	name, paper, model, series, format string
}

// shape is everything one experiment states about the paper.
type shape struct {
	view       func(Scale, any) view
	claims     []claim
	deviations []deviation
}

// within: every point of s lies within tol (relative) of the paper value.
func within(name, s string, paper, tol float64) claim {
	return claim{name, func(v view) error {
		for i, x := range v.get(s) {
			if !(math.Abs(x/paper-1) <= tol) {
				return fmt.Errorf("%s[%d] = %.3g, paper %.3g", s, i, x, paper)
			}
		}
		return nil
	}}
}

// order: lo < hi (strict) or lo <= hi at every point; a one-point series
// stands for every point.
func order(name, lo, hi string, strict bool) claim {
	return claim{name, func(v view) error {
		a, b := v.get(lo), v.get(hi)
		for i := range max(len(a), len(b)) {
			x, y := a[min(i, len(a)-1)], b[min(i, len(b)-1)]
			if !(x < y || !strict && x == y) {
				return fmt.Errorf("point %d: %s = %.3g, %s = %.3g", i, lo, x, hi, y)
			}
		}
		return nil
	}}
}

// rises: s increases (strict) or never falls along its axis.
func rises(name, s string, strict bool) claim {
	return claim{name, func(v view) error {
		xs := v.get(s)
		return order(name, s+" before", s, strict).check(view{s + " before": xs[:len(xs)-1], s: xs[1:]})
	}}
}

// checkShape applies sh's claims and deviations to one result.
func checkShape(t *testing.T, sh shape, sc Scale, results any) {
	t.Helper()
	v := sh.view(sc, results)
	for _, c := range sh.claims {
		if err := c.check(v); err != nil {
			t.Errorf("claim %q fails: %v", c.name, err)
		}
	}
	for _, d := range sh.deviations {
		var got []string
		for _, x := range v.get(d.series) {
			got = append(got, fmt.Sprintf(d.format, x))
		}
		if m := strings.Join(got, "/"); m != d.model {
			t.Errorf("deviation %q: model reads %s, recorded %s (paper %s)", d.name, m, d.model, d.paper)
		}
		t.Logf("deviation %q: paper %s, model %s", d.name, d.paper, d.model)
	}
}

// one is a single-point series.
func one(x float64) []float64 { return []float64{x} }

var staticShapes = map[string]shape{
	"table1": {
		view: func(_ Scale, res any) view {
			d := res.(Table1Data)
			return view{"PIM cores": one(float64(d.PIMCores)), "MRAM MiB": one(float64(d.MRAMMiB)),
				"PIM cores per rank": one(float64(d.PIMCores / (d.PIMChannels * d.PIMRanks)))}
		},
		claims: []claim{
			within("512 PIM cores", "PIM cores", 512, 0),
			within("64 PIM cores per rank", "PIM cores per rank", 64, 0),
			within("64 MiB MRAM per PIM core", "MRAM MiB", 64, 0),
		},
	},
	"area": {
		view: func(_ Scale, res any) view {
			d := res.(AreaData)
			return view{"data KB": one(float64(d.DataKB)), "address KB": one(float64(d.AddrKB)),
				"mm^2": one(d.MM2), "die %": one(100 * d.DieFrac)}
		},
		claims: []claim{
			within("16 KB DCE data buffer", "data KB", 16, 0),
			within("64 KB DCE address buffer", "address KB", 64, 0),
			within("area ~0.85 mm^2", "mm^2", 0.85, paperBand),
			within("die overhead ~0.37%", "die %", 0.37, paperBand),
		},
	},
}

func TestStaticClaims(t *testing.T) {
	for name, sh := range staticShapes {
		t.Run(name, func(t *testing.T) {
			e, _ := ByName(name)
			checkShape(t, sh, Quick, e.Compute(&Runner{}, Quick))
		})
	}
}
