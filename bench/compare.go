package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// runCompare compares two sets of -out files, A (the parent) and B (the
// change), per workload and bounded metric, and exits non-zero when any
// verdict is worse.
func runCompare(args []string, stdout, stderr io.Writer) int {
	split := slices.Index(args, "--")
	if split <= 0 || split == len(args)-1 {
		fmt.Fprintln(stderr, "usage: bench -compare A.json... -- B.json...")
		return 2
	}
	a, err := readOutFiles(args[:split])
	var b map[string]map[string][]float64
	if err == nil {
		b, err = readOutFiles(args[split+1:])
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench -compare:", err)
		return 2
	}
	if printComparison(stdout, a, b) {
		return 1
	}
	return 0
}

// readOutFiles collects workload -> metric -> one value per file.
func readOutFiles(paths []string) (map[string]map[string][]float64, error) {
	vals := map[string]map[string][]float64{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f outFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for w, ms := range f.Workloads {
			if vals[w] == nil {
				vals[w] = map[string][]float64{}
			}
			for name, v := range ms {
				vals[w][name] = append(vals[w][name], v.Value)
			}
		}
	}
	return vals, nil
}

// printComparison prints one row per (workload, bounded metric) present
// on both sides and reports whether any verdict is worse.
func printComparison(w io.Writer, a, b map[string]map[string][]float64) (worse bool) {
	fmt.Fprintf(w, "%-10s %-16s %-6s %-32s %-32s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1 q3]", "B median [q1 q3]", "B wins", "verdict")
	for _, wl := range workloads {
		for _, m := range append(append([]metric{}, endToEnd...), specific...) {
			av, bv := a[wl.name][m.Name], b[wl.name][m.Name]
			if len(av) == 0 || len(bv) == 0 || !appliesTo(m.Name, wl.name) {
				continue
			}
			v, wins := verdict(m, av, bv)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-10s %-16s %-6s %-32s %-32s %6.2f  %s\n",
				wl.name, m.Name, m.Unit, summary(av), summary(bv), wins, v)
		}
	}
	return worse
}

func summary(v []float64) string {
	q1, q3 := quartiles(v)
	return fmt.Sprintf("%.5g [%.5g %.5g]", median(v), q1, q3)
}

// verdict compares the change B against the parent A. It is better or
// worse only when the medians differ by more than both the metric's bound
// and A's interquartile range, and B wins (or loses) at least nine tenths
// of the index-aligned pairs; otherwise it is unresolved when a spread or
// the median shift exceeds the bound, and unchanged when neither does.
// wins is B's share of the pairs it reads better in; ties count for
// neither side.
func verdict(m metric, a, b []float64) (v string, wins float64) {
	pairs := min(len(a), len(b))
	var bWins, aWins int
	for i := 0; i < pairs; i++ {
		switch {
		case improves(m, a[i], b[i]):
			bWins++
		case improves(m, b[i], a[i]):
			aWins++
		}
	}
	wins = float64(bWins) / float64(pairs)
	if m.Bound == 0 { // must stay 0
		for _, x := range b {
			if x > 0 {
				return "worse", wins
			}
		}
		return "unchanged", wins
	}
	ma, mb := median(a), median(b)
	bound := math.Max(m.Bound*math.Abs(ma), m.Floor)
	a1, a3 := quartiles(a)
	b1, b3 := quartiles(b)
	shift := math.Abs(mb - ma)
	if shift > bound && shift > a3-a1 {
		if improves(m, ma, mb) && float64(bWins) >= 0.9*float64(pairs) {
			return "better", wins
		}
		if improves(m, mb, ma) && float64(aWins) >= 0.9*float64(pairs) {
			return "worse", wins
		}
	}
	if shift > bound || a3-a1 > bound || b3-b1 > math.Max(m.Bound*math.Abs(mb), m.Floor) {
		return "unresolved", wins
	}
	return "unchanged", wins
}

// improves reports whether to reads better than from.
func improves(m metric, from, to float64) bool {
	if m.Better == "higher" {
		return to > from
	}
	return to < from
}
