package main

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/addrmap"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/prim"
	"repro/internal/system"
)

// cmdPrim prints one PrIM workload's Fig. 16 breakdown on Base and on
// PIM-MMU — input transfer, analytic DPU kernel time, output transfer,
// each transfer measured on a fresh machine exactly as fig16 measures
// it — or lists the suite's timing descriptors.
func cmdPrim(args []string, w io.Writer) error {
	fs := newFlags("prim")
	scale := fs.Float64("scale", 1.0/64, "problem-size scale factor (1.0 = paper size)")
	list := fs.Bool("list", false, "list workloads")
	if err := parse(fs, args, -1); err != nil {
		return err
	}
	if *list {
		for _, wl := range prim.Suite() {
			fmt.Fprintf(w, "  %-9s in %4d KiB/core, out %4d KiB/core, baseline transfer share %.0f%%\n",
				wl.Name, wl.InBytesPerCore>>10, wl.OutBytesPerCore>>10,
				100*wl.BaselineTransferFraction)
		}
		return nil
	}
	if fs.NArg() != 1 {
		return usageError{fmt.Errorf("want one workload name"), fs}
	}
	wl, ok := prim.ByName(fs.Arg(0))
	if !ok {
		return usagef("unknown workload %q (try -list)", fs.Arg(0))
	}

	cfg := system.DefaultConfig(system.Base)
	r, err := wl.Scale(*scale, cfg.PIM.NumCores())
	if err != nil {
		return usageError{err, fs}
	}
	if err := checkTransfers(cfg, r.InBytes, r.OutBytes); err != nil {
		return usagef("-scale %v: %v", *scale, err)
	}
	for i, ph := range harness.PrimPhases(&harness.Runner{}, []prim.Workload{wl}, *scale) {
		printPhase(w, []system.Design{system.Base, system.PIMMMU}[i], ph)
	}
	return nil
}

// printPhase prints one design's breakdown as one prim line.
func printPhase(w io.Writer, d system.Design, ph prim.Phase) {
	fmt.Fprintf(w, "%-12v in %10v | kernel %10v | out %10v | total %10v (transfer %4.1f%%)\n",
		d, ph.In, ph.Kernel, ph.Out, ph.Total(), 100*ph.TransferFraction())
}

// cmdMap decodes physical addresses under the locality-centric and
// MLP-centric mappings side by side, or shows how a sequential stream
// spreads (or fails to spread) across the DRAM subsystem — the
// intuition behind Fig. 7/8 and HetMap.
func cmdMap(args []string, w io.Writer) error {
	fs := newFlags("map")
	stream := fs.Int("stream", 0, "decode the first N sequential lines")
	if err := parse(fs, args, -1); err != nil {
		return err
	}
	g := dram.DefaultConfig().Geometry
	if lines := g.TotalBytes() / mem.LineBytes; *stream < 0 || uint64(*stream) > lines {
		return usagef("-stream %d outside [0, %d], the lines of the DRAM subsystem", *stream, lines)
	}
	addrs := make([]uint64, 0, fs.NArg())
	for _, s := range fs.Args() {
		a, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return usagef("bad hex address %q", s)
		}
		if a >= g.TotalBytes() {
			return usagef("address %s at or past the end of the %d GiB DRAM subsystem", s, g.TotalBytes()>>30)
		}
		addrs = append(addrs, mem.LineAlign(a))
	}

	loc := addrmap.NewLocality(g)
	mlp := addrmap.NewMLP(g)
	nohash := addrmap.NewMLP(g, addrmap.WithoutXORHash())
	fmt.Fprintf(w, "geometry: %v\n", g)
	fmt.Fprintln(w, "locality-centric (PIM-BIOS):  MSB | Ch Ra Bg Bk Ro Co | LSB")
	fmt.Fprintln(w, "MLP-centric (conventional):   MSB | Ro Bk BgHi Ra CoHi BgLo Ch CoLo | LSB, XOR-hashed")
	fmt.Fprintln(w)
	decode := func(a uint64) {
		fmt.Fprintf(w, "0x%012x  locality: %-24v  mlp: %-24v  mlp-nohash: %v\n",
			a, loc.Map(a), mlp.Map(a), nohash.Map(a))
	}

	if *stream > 0 {
		fmt.Fprintf(w, "sequential stream, %d lines:\n", *stream)
		for i := 0; i < *stream; i++ {
			decode(uint64(i) * mem.LineBytes)
		}
		fmt.Fprintln(w)
		fmt.Fprintln(w, "note how the MLP mapping rotates channels every 256 B while the")
		fmt.Fprintln(w, "locality mapping stays in channel 0 for the first 8 GiB.")
		return nil
	}
	if len(addrs) == 0 {
		addrs = []uint64{0, 0x100, 0x10000, 0x40000000, 0x200000000}
	}
	for _, a := range addrs {
		decode(a)
	}
	return nil
}

// cmdCmds records the DDR4 command stream one channel sees during a
// DRAM->PIM transfer and prints its head and tail, the per-command
// counts and a protocol-check verdict: exactly what PIM-MS issues to a
// channel, against the baseline.
func cmdCmds(args []string, w io.Writer) error {
	fs := newFlags("cmds")
	designFlag := fs.String("design", "pim-mmu", "design point: base or pim-mmu")
	kb := fs.Uint64("kb", 256, "total transfer size in KiB")
	channel := fs.Int("channel", 0, "channel to trace")
	n := fs.Int("n", 24, "commands to print from head and tail")
	side := fs.String("side", "pim", "device set to trace: pim or dram")
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	design, err := system.ParseDesign(*designFlag)
	if err != nil {
		return usageError{err: err}
	}

	cfg := system.DefaultConfig(design)
	s := system.MustNew(cfg)
	set, setCfg := s.Mem.PIM, cfg.Mem.PIM
	if *side == "dram" {
		set, setCfg = s.Mem.DRAM, cfg.Mem.DRAM
	} else if *side != "pim" {
		return usagef("unknown side %q", *side)
	}
	if *channel < 0 || *channel >= setCfg.Geometry.Channels {
		return usagef("channel %d out of range", *channel)
	}
	bytes, err := transferSize("kb", *kb, 10, design)
	if err != nil {
		return err
	}

	rec := &cmdRecorder{Checker: dram.NewChecker(setCfg), counts: map[dram.Cmd]int{}}
	set.Channel(*channel).Observe(rec)
	res := s.MeasureTransfer(core.DRAMToPIM, bytes).Res

	fmt.Fprintf(w, "design %v, %v, %d KiB total, %.2f GB/s\n",
		design, core.DRAMToPIM, res.Bytes>>10, res.Throughput()/1e9)
	fmt.Fprintf(w, "%s channel %d: %d commands  ACT=%d PRE=%d RD=%d WR=%d REF=%d\n",
		*side, *channel, len(rec.events),
		rec.counts[dram.CmdACT], rec.counts[dram.CmdPRE],
		rec.counts[dram.CmdRD], rec.counts[dram.CmdWR], rec.counts[dram.CmdREF])
	if v := rec.Violations(); len(v) > 0 {
		fmt.Fprintf(w, "PROTOCOL VIOLATIONS: %d (first: %s)\n", len(v), v[0])
	} else {
		fmt.Fprintln(w, "protocol check: clean")
	}
	printHeadTail(w, rec.events, *n)
	return nil
}

// cmdRecorder captures one channel's command stream and feeds it to
// the protocol checker.
type cmdRecorder struct {
	*dram.Checker
	events []dram.CmdEvent
	counts map[dram.Cmd]int
}

func (r *cmdRecorder) Command(ch int, e dram.CmdEvent) {
	r.events = append(r.events, e)
	r.counts[e.Cmd]++
	r.Checker.Command(ch, e)
}
