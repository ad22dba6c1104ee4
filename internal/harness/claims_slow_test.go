//go:build slow

// The simulated experiments' paper claims (see claims_test.go): each is
// computed once at quick scale and held to the paper's shape. Run with
//
//	go test -tags slow -run Claim -v ./internal/harness
//
// -v also lists every deviation with its paper and model values.

package harness

import (
	"testing"

	"repro/internal/contend"
	"repro/internal/prim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

var simShapes = map[string]shape{
	"fig4": {
		view: func(_ Scale, res any) view {
			v := view{}
			for _, sec := range res.([]Fig4Section) {
				var w []float64
				for _, row := range sec.Rows {
					v["busy"] = append(v["busy"], row.ActiveFrac)
					w = append(w, row.Watts)
				}
				mean := stats.Mean(w)
				for _, x := range w {
					v["watts/mean"] = append(v["watts/mean"], x/mean)
				}
				v["watts"] = append(v["watts"], w...)
			}
			return v
		},
		claims: []claim{
			within("~100% of cores busy during the transfer", "busy", 1, paperBand),
			within("power holds flat through each transfer", "watts/mean", 1, paperBand),
		},
		deviations: []deviation{{"system power during the transfer", "~70 W", "61.6 W", "mean watts", "%.1f W"}},
	},
	"fig6": {
		view: func(_ Scale, res any) view {
			secs, v := res.([]Fig6Section), view{}
			for _, row := range secs[0].Rows {
				busy, lead := 0.0, 0
				for c, share := range row {
					if share > 0 {
						busy++
					}
					if share > row[lead] {
						lead = c
					}
				}
				if busy > 0 {
					v["(a) busy channels"] = append(v["(a) busy channels"], busy)
					v["(a) lead channel"] = append(v["(a) lead channel"], float64(lead))
				}
			}
			for _, row := range secs[1].Rows {
				v["(b) share %"] = append(v["(b) share %"], row...)
			}
			return v
		},
		claims: []claim{
			order("(a) the software copy writes one channel at a time (two at a hand-off)", "(a) busy channels", "2", false),
			rises("(a) it moves on from each channel and never returns", "(a) lead channel", false),
			within("(b) the hardware copy spreads evenly across the 4 channels", "(b) share %", 25, paperBand),
		},
	},
	"fig8": {
		view: func(_ Scale, res any) view {
			thr, g, v := res.([]float64), fig8Grid(), view{}
			for pi := range fig8Patterns {
				v["locality/MLP"] = append(v["locality/MLP"], thr[g.Index(pi, 0)]/thr[g.Index(pi, 1)])
			}
			return v
		},
		claims: []claim{within("locality-centric reaches ~0.30 of MLP-centric", "locality/MLP", 0.30, paperBand)},
	},
	"fig13a": {
		view: fig13View(fig13aGrid(), len(fig13aCounts)),
		claims: []claim{
			rises("the baseline degrades with every added contender", "Base", true),
			within("PIM-MMU stays flat", "PIM-MMU", 1, paperBand),
			order("PIM-MMU below the baseline", "PIM-MMU", "Base", true),
		},
	},
	"fig13b": {
		view: fig13View(fig13bGrid(), 1+len(contend.Levels())),
		claims: []claim{
			rises("the baseline degrades with memory pressure", "Base", false),
			order("PIM-MMU consistently below the baseline", "PIM-MMU", "Base", true),
			order("PIM-MMU degrades under memory pressure too", "1", "PIM-MMU", false),
		},
		deviations: []deviation{{"PIM-MMU latency vs intensity", "rises with intensity", "1.03/1.10/1.03/1.11", "PIM-MMU", "%.2f"}},
	},
	"fig14": {
		view: func(_ Scale, res any) view {
			thr, g, v := res.([]float64), fig14Grid(), view{}
			for ci, c := range fig14Configs {
				v[c.name] = one(thr[g.Index(ci, 1)] / thr[g.Index(ci, 0)])
				v["gain"] = append(v["gain"], v[c.name]...)
			}
			return v
		},
		claims: []claim{
			order("PIM-MMU beats the baseline everywhere", "1", "gain", true),
			order("more channels raise the gain", "2C-4R", "4C-8R", true),
			order("more ranks do not", "4C-16R", "4C-8R", false),
		},
		deviations: []deviation{{"memcpy gain, max", "4.9x avg (max 6.0x)", "3.42x", "max gain", "%.2fx"}},
	},
	"fig15a": {
		view: fig15View(func(recs []TransferRecord, i, base int) float64 {
			return recs[i].Throughput() / recs[base].Throughput()
		}),
		claims: []claim{
			order("Base+D below 1.0 (vanilla DMA loses to AVX software)", "Base+D", "1", true),
			order("the full PIM-MMU is the fastest design", "Base+D+H", "PIM-MMU", true),
			order("the full PIM-MMU beats Base", "1", "PIM-MMU", true),
			within("the full PIM-MMU reaches max ~6.9x", "max PIM-MMU", 6.9, paperBand),
		},
		deviations: []deviation{{"full PIM-MMU gain, average", "~4x", "5.51x", "mean PIM-MMU", "%.2fx"}},
	},
	"fig15b": {
		view: fig15View(func(recs []TransferRecord, i, base int) float64 {
			return recs[i].Energy.Total() / recs[base].Energy.Total()
		}),
		claims: []claim{
			order("Base+D costs more energy than Base", "1", "Base+D", true),
			order("Base+D+H costs more energy than Base", "1", "Base+D+H", true),
			order("PIM-MMU costs less energy than Base", "PIM-MMU", "1", true),
		},
		deviations: []deviation{
			{"PIM-MMU energy gain, least", "3.3x/4.9x", "3.9x", "min Base/PIM-MMU", "%.1fx"},
			{"PIM-MMU energy gain, most", "3.3x/4.9x", "7.8x", "max Base/PIM-MMU", "%.1fx"},
		},
	},
	"fig16": {
		view: func(_ Scale, res any) view {
			phases, g, v := res.([]prim.Phase), fig16Grid(), view{}
			for wi := range prim.Suite() {
				pb, pm := phases[g.Index(wi, 0)], phases[g.Index(wi, 1)]
				v["speedup"] = append(v["speedup"], float64(pb.Total())/float64(pm.Total()))
				v["transfer %"] = append(v["transfer %"], 100*pb.TransferFraction())
			}
			return v
		},
		claims: []claim{
			within("end-to-end speedup avg ~2.2x", "mean speedup", 2.2, paperBand),
			order("PIM-MMU slows no workload", "1", "speedup", false),
			within("baseline transfer share avg ~63.7%", "mean transfer %", 63.7, paperBand),
		},
		deviations: []deviation{{"end-to-end speedup, max", "4.0x", "5.05x", "max speedup", "%.2fx"}},
	},
	"headline": {
		view: func(sc Scale, res any) view {
			pts, g, v := res.([]HeadlinePoint), headlineGrid(sc), view{}
			for di := range bothDirections {
				for si := range fig15Sizes(sc) {
					b, m := pts[g.Index(di, si, 0)], pts[g.Index(di, si, 1)]
					v["throughput gain"] = append(v["throughput gain"], m.Thr/b.Thr)
					v["efficiency gain"] = append(v["efficiency gain"], m.Eff/b.Eff)
				}
			}
			return v
		},
		claims: []claim{
			order("PIM-MMU transfers faster everywhere", "1", "throughput gain", true),
			order("PIM-MMU is more energy-efficient everywhere", "1", "efficiency gain", true),
			within("transfer throughput gain max ~6.9x", "max throughput gain", 6.9, paperBand),
		},
		deviations: []deviation{
			{"transfer throughput gain, average", "4.1x", "5.51x", "mean throughput gain", "%.2fx"},
			{"energy-efficiency gain, average", "4.1x", "6.18x", "mean efficiency gain", "%.2fx"},
			{"energy-efficiency gain, max", "6.9x", "7.83x", "max efficiency gain", "%.2fx"},
		},
	},
	"replay": {
		view: func(_ Scale, res any) view {
			pts, g, v := res.([]ReplayPoint), replayGrid(), view{}
			for wi, wl := range replayWorkloads() {
				region := "DRAM-region gain"
				if wl.pim {
					region = "PIM-region gain"
				}
				v[region] = append(v[region], pts[g.Index(wi, 1)].Thr/pts[g.Index(wi, 0)].Thr)
			}
			return v
		},
		claims: []claim{
			order("DRAM-region patterns gain from HetMap's MLP-centric mapping", "1", "DRAM-region gain", true),
			within("the PIM-region pattern is mapping-neutral", "PIM-region gain", 1, paperBand),
		},
	},
	"loadcurve": {
		view: func(sc Scale, res any) view {
			pts, g, v := res.([]LoadPoint), loadCurveGrid(sc), view{"Base knee": one(0), "PIM-MMU knee": one(0)}
			for gi, gap := range loadGaps(sc) {
				for d, name := range []string{"Base", "PIM-MMU"} {
					p99 := pts[g.Index(gi, d)].Total.P99()
					v[name+" p99"] = append(v[name+" p99"], p99.Nanoseconds())
					if p99 <= loadSLO {
						v[name+" knee"][0] = max(v[name+" knee"][0], loadDriverConfig(sc, gap).OfferedLoad())
					}
				}
			}
			v["low-load p50 PIM-MMU/Base"] = one(pts[g.Index(0, 1)].Total.P50().Nanoseconds() / pts[g.Index(0, 0)].Total.P50().Nanoseconds())
			return v
		},
		claims: []claim{
			order("PIM-MMU's SLO knee sits at a higher load than Base's", "Base knee", "PIM-MMU knee", true),
			rises("Base p99 never falls as load rises", "Base p99", false),
			rises("PIM-MMU p99 never falls as load rises", "PIM-MMU p99", false),
			within("both designs track the service floor at low load", "low-load p50 PIM-MMU/Base", 1, paperBand),
		},
	},
}

// fig13View reads rows 1..rows-1 of a Fig. 13 grid (row 0 is the
// uncontended reference) as latencies normalized to each design's row 0.
func fig13View(g sweep.Grid, rows int) func(Scale, any) view {
	return func(_ Scale, res any) view {
		lat, v := res.([]float64), view{}
		for row := 1; row < rows; row++ {
			v["Base"] = append(v["Base"], lat[g.Index(row, 0)]/lat[g.Index(0, 0)])
			v["PIM-MMU"] = append(v["PIM-MMU"], lat[g.Index(row, 1)]/lat[g.Index(0, 1)])
		}
		return v
	}
}

// fig15View reads a Fig. 15 grid of transfer records as each design's
// value over Base's at every (direction x size) point; norm(recs, i,
// base) is that ratio for grid indexes i and base.
func fig15View(norm func(recs []TransferRecord, i, base int) float64) func(Scale, any) view {
	return func(sc Scale, res any) view {
		recs, g, v := res.([]TransferRecord), fig15Grid(sc), view{}
		for di := range bothDirections {
			for si := range fig15Sizes(sc) {
				for d, name := range []string{"Base+D", "Base+D+H", "PIM-MMU"} {
					v[name] = append(v[name], norm(recs, g.Index(di, si, d+1), g.Index(di, si, 0)))
				}
				v["Base/PIM-MMU"] = append(v["Base/PIM-MMU"], 1/v["PIM-MMU"][len(v["PIM-MMU"])-1])
			}
		}
		return v
	}
}

func TestExperimentClaims(t *testing.T) {
	for _, e := range All() {
		if sh, ok := simShapes[e.Name]; ok {
			t.Run(e.Name, func(t *testing.T) { checkShape(t, sh, Quick, e.Compute(&Runner{}, Quick)) })
		}
	}
}

func TestEveryExperimentHasClaim(t *testing.T) {
	for _, e := range All() {
		if len(staticShapes[e.Name].claims)+len(simShapes[e.Name].claims) == 0 {
			t.Errorf("experiment %q states no paper claim", e.Name)
		}
	}
}
