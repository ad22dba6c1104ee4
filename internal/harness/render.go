// Render phase of every experiment: deterministic text from the pure
// result types alone. Nothing here may import internal/system (enforced
// by cmd/pimmu-lint) — a renderer fed a fully warmed cache produces the
// same bytes as one fed a cold compute, because it cannot tell the
// difference.

package harness

import (
	"fmt"
	"io"

	"repro/internal/clock"
	"repro/internal/contend"
	"repro/internal/prim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// table1Render prints the simulated system configuration.
func table1Render(w io.Writer, _ Scale, d Table1Data) {
	t := stats.NewTable("component", "configuration")
	t.Rowf("CPU\t%d cores, %.1f GHz, %d load buffers, %d store buffers",
		d.CPUCores, d.CPUClockGHz, d.LoadBuffers, d.StoreBuffers)
	t.Rowf("OS scheduler\tround robin, %v quantum", d.Quantum)
	t.Rowf("LLC\t%d MB shared, %d-way, 64 B lines", d.LLCMB, d.LLCWays)
	t.Rowf("Memory controller\t%d-entry read & write queues, FR-FCFS, write drain %d/%d",
		d.QueueDepth, d.DrainHi, d.DrainLo)
	t.Rowf("DRAM system\tDDR4-2400, %d channels, %d ranks/channel (%.1f GiB)",
		d.DRAMChannels, d.DRAMRanks, d.DRAMGiB)
	t.Rowf("PIM system\tDDR4-2400, %d channels, %d ranks/channel, %d PIM cores (%d MiB MRAM each)",
		d.PIMChannels, d.PIMRanks, d.PIMCores, d.MRAMMiB)
	t.Rowf("DCE\t%.1f GHz, %d KB data buffer, %d KB address buffer",
		d.DCEClockGHz, d.DataBufKB, d.AddrBufKB)
	t.Rowf("PIM-MS\tAlgorithm 1 (channel-parallel, bank-group interleaved)")
	t.Rowf("HetMap\tDRAM: MLP-centric + XOR hash; PIM: ChRaBgBkRoCo")
	fmt.Fprint(w, t)
}

// areaRender prints the Section VI-C implementation-overhead analysis.
func areaRender(w io.Writer, _ Scale, d AreaData) {
	t := stats.NewTable("quantity", "paper", "model")
	t.Rowf("DCE SRAM\t16 KB + 64 KB\t%d KB + %d KB", d.DataKB, d.AddrKB)
	t.Rowf("area (32 nm)\t0.85 mm^2\t%.2f mm^2", d.MM2)
	t.Rowf("CPU die overhead\t0.37%%\t%.2f%%", 100*d.DieFrac)
	fmt.Fprint(w, t)
}

// fig4Render prints each direction's time series in paper order.
func fig4Render(w io.Writer, sc Scale, sections []Fig4Section) {
	size := fig4Size(sc)
	for i, sec := range sections {
		fmt.Fprintf(w, "-- %v transfer of %d MiB (baseline) --\n", bothDirections[i], size>>20)
		t := stats.NewTable("t (us)", "active cores (%)", "system power (W)")
		for _, row := range sec.Rows {
			t.Rowf("%d\t%.0f\t%.1f", row.T, 100*row.ActiveFrac, row.Watts)
		}
		fmt.Fprint(w, t)
		fmt.Fprintf(w, "transfer: %s GB/s; paper shape: ~100%% cores busy, ~70 W during transfer\n\n",
			gb(sec.Thr))
	}
}

// fig6Render prints each design point's per-channel share table.
func fig6Render(w io.Writer, _ Scale, sections []Fig6Section) {
	for i, sec := range sections {
		fmt.Fprintf(w, "-- (%s) per-PIM-channel share of write throughput over time --\n", fig6Points[i].label)
		t := stats.NewTable("t (x100us)", "ch0 %", "ch1 %", "ch2 %", "ch3 %")
		rows := sec.Rows
		step := len(rows)/12 + 1
		for k := 0; k < len(rows); k += step {
			t.Rowf("%d\t%.0f\t%.0f\t%.0f\t%.0f", k,
				rows[k][0], rows[k][1], rows[k][2], rows[k][3])
		}
		fmt.Fprint(w, t)
		fmt.Fprintln(w)
	}
}

// fig8Render prints the locality-vs-MLP bandwidth table.
func fig8Render(w io.Writer, _ Scale, thr []float64) {
	g := fig8Grid()
	t := stats.NewTable("pattern", "locality (GB/s)", "MLP (GB/s)", "locality/MLP")
	for pi, p := range fig8Patterns {
		loc := thr[g.Index(pi, 0)]
		mlp := thr[g.Index(pi, 1)]
		t.Rowf("%s\t%s\t%s\t%.2f", p.name, gb(loc), gb(mlp), loc/mlp)
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "paper shape: locality-centric reaches ~0.30 of MLP-centric for both patterns")
}

// fig13aRender prints the compute-contender table normalized to each
// design's idle row.
func fig13aRender(w io.Writer, _ Scale, lat []float64) {
	g := fig13aGrid()
	t := stats.NewTable("spin contenders", "Base (norm. latency)", "PIM-MMU (norm. latency)")
	baseIdle, mmuIdle := lat[g.Index(0, 0)], lat[g.Index(0, 1)]
	for ci, n := range fig13aCounts {
		t.Rowf("%d\t%.2f\t%.2f", n, lat[g.Index(ci, 0)]/baseIdle, lat[g.Index(ci, 1)]/mmuIdle)
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "paper shape: baseline degrades sharply with contenders; PIM-MMU flat")
}

// fig13bRender prints the memory-contender intensity table normalized to
// the uncontended reference row.
func fig13bRender(w io.Writer, _ Scale, lat []float64) {
	levels := contend.Levels()
	g := fig13bGrid()
	baseIdle, mmuIdle := lat[g.Index(0, 0)], lat[g.Index(0, 1)]
	t := stats.NewTable("intensity", "Base (norm. latency)", "PIM-MMU (norm. latency)")
	for li, level := range levels {
		t.Rowf("%v\t%.2f\t%.2f", level,
			lat[g.Index(li+1, 0)]/baseIdle, lat[g.Index(li+1, 1)]/mmuIdle)
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "paper shape: both degrade with memory pressure; PIM-MMU consistently lower")
}

// fig14Render prints the memcpy-throughput table.
func fig14Render(w io.Writer, _ Scale, thr []float64) {
	g := fig14Grid()
	t := stats.NewTable("config", "Baseline (GB/s)", "PIM-MMU (GB/s)", "gain")
	for ci, c := range fig14Configs {
		base := thr[g.Index(ci, 0)]
		mmu := thr[g.Index(ci, 1)]
		t.Rowf("%s\t%s\t%s\t%s", c.name, gb(base), gb(mmu), ratio(mmu/base))
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "paper shape: 4.9x avg (max 6.0x); gains scale with channels, not ranks")
}

// fig15aRender prints the ablation's throughput tables, one per
// direction, normalized to Base.
func fig15aRender(w io.Writer, sc Scale, recs []TransferRecord) {
	sizes := fig15Sizes(sc)
	g := fig15Grid(sc)
	for di, dir := range bothDirections {
		fmt.Fprintf(w, "-- %v: throughput normalized to Base --\n", dir)
		t := stats.NewTable("size", "Base", "Base+D", "Base+D+H", "Base+D+H+P")
		for si, size := range sizes {
			thr := func(d int) float64 { return recs[g.Index(di, si, d)].Throughput() }
			base := thr(0)
			t.Rowf("%dMB\t1.00\t%.2f\t%.2f\t%.2f", size>>20, thr(1)/base, thr(2)/base, thr(3)/base)
		}
		fmt.Fprint(w, t)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper shape: Base+D often below 1.0 (vanilla DMA loses to AVX software);")
	fmt.Fprintln(w, "             full PIM-MMU ~4x (max 6.9x)")
}

// fig15bRender prints the ablation's energy tables, one per direction,
// normalized to Base.
func fig15bRender(w io.Writer, sc Scale, recs []TransferRecord) {
	sizes := fig15Sizes(sc)
	g := fig15Grid(sc)
	for di, dir := range bothDirections {
		fmt.Fprintf(w, "-- %v: energy normalized to Base (lower is better) --\n", dir)
		t := stats.NewTable("size", "Base", "Base+D", "Base+D+H", "Base+D+H+P", "PIM-MMU static share")
		for si, size := range sizes {
			joules := func(d int) float64 { return recs[g.Index(di, si, d)].Energy.Total() }
			base := joules(0)
			mmu := recs[g.Index(di, si, 3)].Energy
			t.Rowf("%dMB\t1.00\t%.2f\t%.2f\t%.2f\t%.0f%%", size>>20,
				joules(1)/base, joules(2)/base, joules(3)/base, 100*(mmu.Static()/mmu.Total()))
		}
		fmt.Fprint(w, t)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper shape: Base+D and Base+D+H cost MORE energy than Base (longer")
	fmt.Fprintln(w, "             transfers, static power dominates); PIM-MMU 3.3x/4.9x better")
}

// fig16Render prints the per-workload time breakdown (DRAM->PIM
// transfer, PIM kernel, PIM->DRAM transfer) normalized to the baseline.
func fig16Render(w io.Writer, _ Scale, phases []prim.Phase) {
	suite := prim.Suite()
	g := fig16Grid()
	t := stats.NewTable("workload",
		"base in%", "base kern%", "base out%",
		"mmu total (norm.)", "speedup", "xfer cut in", "xfer cut out")
	var speedups, fracs []float64
	for wi, wl := range suite {
		pb := phases[g.Index(wi, 0)]
		pm := phases[g.Index(wi, 1)]

		bt := float64(pb.Total())
		sp := bt / float64(pm.Total())
		speedups = append(speedups, sp)
		fracs = append(fracs, pb.TransferFraction())
		inCut, outCut := 0.0, 0.0
		if pm.In > 0 {
			inCut = float64(pb.In) / float64(pm.In)
		}
		if pm.Out > 0 {
			outCut = float64(pb.Out) / float64(pm.Out)
		}
		t.Rowf("%s\t%.0f\t%.0f\t%.0f\t%.2f\t%s\t%s\t%s",
			wl.Name,
			100*float64(pb.In)/bt, 100*float64(pb.Kernel)/bt, 100*float64(pb.Out)/bt,
			float64(pm.Total())/bt, ratio(sp), ratio(inCut), ratio(outCut))
	}
	fmt.Fprint(w, t)
	fmt.Fprintf(w, "baseline transfer share: avg %.1f%% (paper: 63.7%%, max 99.7%%)\n",
		100*stats.Mean(fracs))
	fmt.Fprintf(w, "end-to-end speedup: avg %s, max %s (paper: avg 2.2x, max 4.0x)\n",
		ratio(stats.Mean(speedups)), ratio(stats.Max(speedups)))
}

// headlineRender prints the abstract's summary table.
func headlineRender(w io.Writer, sc Scale, res []HeadlinePoint) {
	sizes := fig15Sizes(sc)
	g := headlineGrid(sc)
	var speedups, effs []float64
	for di := range bothDirections {
		for si := range sizes {
			b := res[g.Index(di, si, 0)]
			m := res[g.Index(di, si, 1)]
			speedups = append(speedups, m.Thr/b.Thr)
			effs = append(effs, m.Eff/b.Eff)
		}
	}
	t := stats.NewTable("metric", "paper", "measured (avg)", "measured (max)")
	t.Rowf("transfer throughput gain\t4.1x (max 6.9x)\t%s\t%s",
		ratio(stats.Mean(speedups)), ratio(stats.Max(speedups)))
	t.Rowf("energy-efficiency gain\t4.1x (max 6.9x)\t%s\t%s",
		ratio(stats.Mean(effs)), ratio(stats.Max(effs)))
	fmt.Fprint(w, t)
}

// replayRender prints the per-workload bandwidth/latency table.
func replayRender(w io.Writer, _ Scale, res []ReplayPoint) {
	workloads := replayWorkloads()
	g := replayGrid()
	t := stats.NewTable("workload", "Base (GB/s)", "PIM-MMU (GB/s)", "gain",
		"Base p50/p95/p99 (ns)", "PIM-MMU p50/p95/p99 (ns)")
	for wi, wl := range workloads {
		b := res[g.Index(wi, 0)]
		m := res[g.Index(wi, 1)]
		t.Rowf("%s\t%s\t%s\t%s\t%s\t%s", wl.name,
			gb(b.Thr), gb(m.Thr), ratio(m.Thr/b.Thr),
			percentiles(&b.Hist), percentiles(&m.Hist))
	}
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "expected shape: DRAM-region patterns gain from HetMap's MLP-centric")
	fmt.Fprintln(w, "                mapping; the PIM-region pattern is mapping-neutral")
}

// percentiles renders a latency histogram's tail as "p50/p95/p99" in
// whole nanoseconds (bucket upper bounds: each figure is a <= bound).
func percentiles(h *trace.LatencyHist) string {
	return fmt.Sprintf("%.0f/%.0f/%.0f",
		h.P50().Nanoseconds(), h.P95().Nanoseconds(), h.P99().Nanoseconds())
}

// loadCurveRender prints the latency-vs-offered-load table: each point
// reports the end-to-end tail (p50/p99/p99.9) plus the p99 queueing
// delay — the component a closed-loop replay cannot see. The footer row
// reads off the SLO knee: the maximum offered load whose p99 stays
// within the objective.
func loadCurveRender(w io.Writer, sc Scale, res []LoadPoint) {
	gaps := loadGaps(sc)
	g := loadCurveGrid(sc)
	t := stats.NewTable("offered (GB/s)", "Base p50/p99/p99.9 (ns)", "PIM-MMU p50/p99/p99.9 (ns)",
		"Base p99 queue (ns)", "PIM-MMU p99 queue (ns)")
	knee := make([]clock.Picos, len(baseVsMMU)) // best (smallest) gap within SLO
	for gi, gap := range gaps {
		b := res[g.Index(gi, 0)]
		m := res[g.Index(gi, 1)]
		t.Rowf("%s\t%s\t%s\t%.0f\t%.0f",
			gb(loadDriverConfig(sc, gap).OfferedLoad()),
			percentiles999(&b.Total), percentiles999(&m.Total),
			b.Queue.P99().Nanoseconds(), m.Queue.P99().Nanoseconds())
		for di := range knee {
			p := res[g.Index(gi, di)]
			if p.Total.P99() <= loadSLO && (knee[di] == 0 || gap < knee[di]) {
				knee[di] = gap
			}
		}
	}
	t.Rowf("max load @ p99 <= %v\t%s\t%s\t\t", loadSLO, kneeCell(sc, knee[0]), kneeCell(sc, knee[1]))
	fmt.Fprint(w, t)
	fmt.Fprintln(w, "expected shape: both designs track the service floor at low load; the")
	fmt.Fprintln(w, "                knee sits where queueing delay takes over the p99")
}

// kneeCell renders one design's SLO knee as its offered load, or "-"
// when no point on the axis met the objective.
func kneeCell(sc Scale, gap clock.Picos) string {
	if gap == 0 {
		return "-"
	}
	return gb(loadDriverConfig(sc, gap).OfferedLoad()) + " GB/s"
}

// percentiles999 renders a latency histogram's tail as "p50/p99/p99.9"
// in whole nanoseconds (bucket upper bounds: each figure is a <= bound).
func percentiles999(h *trace.LatencyHist) string {
	return fmt.Sprintf("%.0f/%.0f/%.0f",
		h.P50().Nanoseconds(), h.P99().Nanoseconds(), h.P999().Nanoseconds())
}
