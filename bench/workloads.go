package main

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/contend"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/harness"
	"repro/internal/system"
	"repro/internal/trace"
)

// workload is one set of inputs the benchmark runs. Simulation workloads
// list their ops; serve drives an HTTP server instead (see serve.go).
type workload struct {
	name string
	// class is the lane-topology class the workload's machines run on;
	// it names the oracle's reference digests, because the plain and the
	// sharded engine may order equal-time events differently.
	class  string
	seeded bool
	// ops lists one round of ops; tiny shrinks them to a seconds-long
	// smoke of the same code paths.
	ops func(seed uint64, tiny bool) []simOp
}

// workloads are the benchmark's four workloads, in run order. Why each
// exists is in README.md.
var workloads = []workload{
	{name: "transfer", class: "plain", ops: transferOps},
	{name: "contention", class: "sharded", ops: contentionOps},
	{name: "openloop", class: "plain", seeded: true, ops: openLoopOps},
	{name: "serve", class: "plain"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want transfer, contention, openloop or serve)", name)
}

// simOp is one simulation: build a fresh machine from cfg, prepare the
// op's input on it, run it.
type simOp struct {
	name string
	cfg  system.Config
	// prepare builds the input (buffers, contenders, traces) and returns
	// the closure that runs the simulation.
	prepare func(s *system.System) func() outcome
}

// outcome is what one simulation produced.
type outcome struct {
	// canon is the canonical text of the simulated results; the oracle
	// digests it.
	canon string
	// err is a violated invariant.
	err error
	// thr is the simulated throughput of a transfer, bytes per second.
	thr  float64
	load *trace.LoadResult
}

var baseVsMMU = []system.Design{system.Base, system.PIMMMU}

var directions = []core.Direction{core.DRAMToPIM, core.PIMToDRAM}

func designLabel(d system.Design) string {
	if d == system.Base {
		return "base"
	}
	return "pim-mmu"
}

func dirLabel(d core.Direction) string {
	if d == core.DRAMToPIM {
		return "d2p"
	}
	return "p2d"
}

// transferOps: whole-device transfers both ways, on Base (CPU copy
// loops) and PIM-MMU (DCE, PIM-MS, HetMap), on the default plain engine.
func transferOps(_ uint64, tiny bool) []simOp {
	sizes := []uint64{4 << 20, 16 << 20}
	if tiny {
		sizes = []uint64{1 << 20}
	}
	var ops []simOp
	for _, d := range baseVsMMU {
		for _, dir := range directions {
			for _, size := range sizes {
				name := fmt.Sprintf("%s %s %dMiB", designLabel(d), dirLabel(dir), size>>20)
				ops = append(ops, transferOp(name, system.DefaultConfig(d), dir, size, nil))
			}
		}
	}
	return ops
}

// contentionOps: a DRAM->PIM transfer beside compute-spin contenders and
// beside very-high-intensity memory hogs (Fig. 13a/b), on the sharded
// engine with per-core lanes sized by the auto topology.
func contentionOps(_ uint64, tiny bool) []simOp {
	size, spinners, hogs := uint64(4<<20), 16, 4
	if tiny {
		size, spinners, hogs = 1<<20, 4, 2
	}
	shards, coreLanes, _, err := harness.ResolveTopology("auto", "auto")
	if err != nil {
		panic(err) // constant arguments
	}
	var ops []simOp
	for _, d := range baseVsMMU {
		cfg := system.DefaultConfig(d)
		cfg.Shards, cfg.CoreLanes = shards, coreLanes
		ops = append(ops,
			transferOp(fmt.Sprintf("%s spin x%d", designLabel(d), spinners), cfg, core.DRAMToPIM, size,
				func(s *system.System) *contend.Stopper {
					const wset = 16 << 10
					base := s.Alloc(uint64(spinners) * wset)
					return s.Contenders(spinners, func(i int, st *contend.Stopper) cpu.Program {
						return contend.Spin(st, base+uint64(i)*wset)
					})
				}),
			transferOp(fmt.Sprintf("%s hog x%d", designLabel(d), hogs), cfg, core.DRAMToPIM, size,
				func(s *system.System) *contend.Stopper {
					const footprint = 64 << 20
					base := s.Alloc(uint64(hogs) * footprint)
					return s.Contenders(hogs, func(i int, st *contend.Stopper) cpu.Program {
						return contend.MemoryHog(st, base+uint64(i)*footprint, footprint, contend.VeryHigh)
					})
				}))
	}
	return ops
}

// transferOp moves total bytes across every PIM core, optionally beside
// contenders spawned before the transfer's buffer is allocated.
func transferOp(name string, cfg system.Config, dir core.Direction, total uint64,
	contenders func(*system.System) *contend.Stopper) simOp {
	return simOp{name: name, cfg: cfg, prepare: func(s *system.System) func() outcome {
		var st *contend.Stopper
		if contenders != nil {
			st = contenders(s)
		}
		n := s.Cfg.PIM.NumCores()
		per := total / uint64(n) &^ 63
		op := s.TransferOp(dir, n, per)
		return func() outcome {
			res := s.RunTransfer(op)
			if st != nil {
				st.Stop()
			}
			out := outcome{thr: res.Throughput(), canon: fmt.Sprintf("dur_ps=%d bytes=%d %s",
				res.Duration, res.Bytes, memCanon(s))}
			if want := per * uint64(n); res.Bytes != want {
				out.err = fmt.Errorf("transferred %d bytes, requested %d", res.Bytes, want)
			}
			return out
		}
	}}
}

// loadArrivals is the Poisson arrival count of every openloop point.
const loadArrivals = 262144

// openLoopOps: open-loop Poisson arrivals below, at and past Base's
// knee, over a mixed read/write and a zipf hot-set pattern. The seed
// drives both the pattern generator and the arrival process.
func openLoopOps(seed uint64, tiny bool) []simOp {
	arrivals := loadArrivals
	gaps := []clock.Picos{8 * clock.Nanosecond, 2 * clock.Nanosecond, 1 * clock.Nanosecond}
	if tiny {
		arrivals, gaps = 8192, gaps[1:2]
	}
	var ops []simOp
	for _, p := range []trace.Pattern{trace.PatternMixed, trace.PatternZipf} {
		for _, gap := range gaps {
			for _, d := range baseVsMMU {
				gcfg := trace.DefaultGenConfig()
				gcfg.Records = arrivals
				gcfg.FootprintLines = 1 << 18 // 16 MiB: twice the LLC
				gcfg.Seed = seed
				dcfg := trace.DefaultDriverConfig()
				dcfg.MeanGap = gap
				dcfg.Duration = gap * clock.Picos(arrivals)
				dcfg.Seed = seed
				name := fmt.Sprintf("%s %s gap=%dps", designLabel(d), p, gap)
				ops = append(ops, loadOp(name, system.DefaultConfig(d), p, gcfg, dcfg))
			}
		}
	}
	return ops
}

func loadOp(name string, cfg system.Config, p trace.Pattern, gcfg trace.GenConfig, dcfg trace.DriverConfig) simOp {
	return simOp{name: name, cfg: cfg, prepare: func(s *system.System) func() outcome {
		gcfg.Base = s.Alloc(gcfg.FootprintBytes(p))
		recs := trace.MustGenerate(p, gcfg)
		return func() outcome {
			lr, err := s.RunLoad(recs, dcfg)
			if err != nil {
				return outcome{err: err}
			}
			return outcome{load: &lr, err: loadInvariants(lr), canon: fmt.Sprintf(
				"arrivals=%d issued=%d completed=%d rd=%d wr=%d dur_ps=%d queue=%d service=%d total=%d "+
					"total_q=%d/%d/%d queue_q=%d/%d/%d service_q=%d/%d/%d retries=%d max_queued=%d %s",
				lr.Arrivals, lr.Issued, lr.Completed, lr.BytesRead, lr.BytesWritten, lr.Duration(),
				lr.QueueSum, lr.ServiceSum, lr.TotalSum,
				lr.Total.P50(), lr.Total.P99(), lr.Total.P999(),
				lr.Queue.P50(), lr.Queue.P99(), lr.Queue.P999(),
				lr.Service.P50(), lr.Service.P99(), lr.Service.P999(),
				lr.Retries, lr.MaxQueued, memCanon(s))}
		}
	}}
}

// loadInvariants checks request conservation and the exact latency
// decomposition of an open-loop run.
func loadInvariants(lr trace.LoadResult) error {
	if lr.Completed != lr.Issued || lr.Issued != lr.Arrivals {
		return fmt.Errorf("arrivals %d, issued %d, completed %d: want all equal", lr.Arrivals, lr.Issued, lr.Completed)
	}
	if lr.QueueSum+lr.ServiceSum != lr.TotalSum {
		return fmt.Errorf("queue %d + service %d != total %d", lr.QueueSum, lr.ServiceSum, lr.TotalSum)
	}
	return nil
}

// memCanon is the canonical text of the memory system's command and
// cache counters.
func memCanon(s *system.System) string {
	ch := func(st dram.Stats) string {
		var hits uint64
		for _, c := range st.Channels {
			hits += c.RowHits
		}
		return fmt.Sprintf("cas=%d act=%d ref=%d rowhit=%d", st.CAS(), st.Acts(), st.Refs(), hits)
	}
	ls := s.Mem.LLC.Stats()
	return fmt.Sprintf("dram[%s] pim[%s] llc[hit=%d miss=%d wb=%d]",
		ch(s.Mem.DRAM.Stats()), ch(s.Mem.PIM.Stats()), ls.Hits, ls.Misses, ls.Writebacks)
}

// counts are one machine's exact per-layer counters after an op.
type counts struct {
	Events                                              uint64
	DRAMCAS, DRAMActs, DRAMRowHits, DRAMRows, DRAMQFull uint64
	PIMCAS, PIMRowHits, PIMRows, PIMQFull               uint64
	LLCHits, LLCMisses, LLCWritebacks                   uint64
	CPUBusy                                             clock.Picos
	DCEBytes                                            uint64
}

// requests is the number of simulated memory requests served: LLC hits
// plus column commands on both device sets.
func (c counts) requests() uint64 { return c.LLCHits + c.DRAMCAS + c.PIMCAS }

func (c *counts) add(o counts) {
	c.Events += o.Events
	c.DRAMCAS += o.DRAMCAS
	c.DRAMActs += o.DRAMActs
	c.DRAMRowHits += o.DRAMRowHits
	c.DRAMRows += o.DRAMRows
	c.DRAMQFull += o.DRAMQFull
	c.PIMCAS += o.PIMCAS
	c.PIMRowHits += o.PIMRowHits
	c.PIMRows += o.PIMRows
	c.PIMQFull += o.PIMQFull
	c.LLCHits += o.LLCHits
	c.LLCMisses += o.LLCMisses
	c.LLCWritebacks += o.LLCWritebacks
	c.CPUBusy += o.CPUBusy
	c.DCEBytes += o.DCEBytes
}

func machineCounts(s *system.System) counts {
	c := counts{Events: s.Eng.Fired(), DCEBytes: s.DCE.BytesMoved}
	for _, ch := range s.Mem.DRAM.Stats().Channels {
		c.DRAMCAS += ch.CAS()
		c.DRAMActs += ch.Acts
		c.DRAMRowHits += ch.RowHits
		c.DRAMRows += ch.RowHits + ch.RowMisses + ch.RowConflicts
		c.DRAMQFull += ch.QueueFull
	}
	for _, ch := range s.Mem.PIM.Stats().Channels {
		c.PIMCAS += ch.CAS()
		c.PIMRowHits += ch.RowHits
		c.PIMRows += ch.RowHits + ch.RowMisses + ch.RowConflicts
		c.PIMQFull += ch.QueueFull
	}
	ls := s.Mem.LLC.Stats()
	c.LLCHits, c.LLCMisses, c.LLCWritebacks = ls.Hits, ls.Misses, ls.Writebacks
	for _, k := range s.CPU.Cores() {
		c.CPUBusy += k.BusyTime()
	}
	return c
}

// windowFired counts the events a sharded engine fired inside parallel
// windows. The split between windows and the serial frontier follows the
// engine's wall-time controller, so unlike counts it varies run to run.
func windowFired(s *system.System) uint64 {
	var n uint64
	for _, l := range s.Eng.ShardStats().Lanes {
		n += l.WindowFired
	}
	return n
}
