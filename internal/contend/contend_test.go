package contend

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// drainOps pulls up to n ops from a program, returning them.
func drainOps(p cpu.Program, n int) []cpu.Op {
	var ops []cpu.Op
	for i := 0; i < n; i++ {
		op, ok := p.Next()
		if !ok {
			break
		}
		ops = append(ops, op)
	}
	return ops
}

func TestSpinIsComputeDominated(t *testing.T) {
	st := &Stopper{}
	p := Spin(st, 0x1000)
	ops := drainOps(p, 100)
	var computeCycles, loads int64
	for _, op := range ops {
		switch op.Kind {
		case cpu.OpCompute:
			computeCycles += op.Cycles
		case cpu.OpLoad:
			loads++
		}
	}
	if loads == 0 {
		t.Fatal("spinner never loads (needs cache-resident accesses)")
	}
	// Compute must dwarf memory: >1000 cycles per load.
	if computeCycles/loads < 1000 {
		t.Errorf("spin compute/load = %d cycles, want compute-bound", computeCycles/loads)
	}
}

func TestSpinWorkingSetStaysSmall(t *testing.T) {
	st := &Stopper{}
	p := Spin(st, 1<<20)
	lo, hi := uint64(1)<<62, uint64(0)
	for _, op := range drainOps(p, 500) {
		if op.Kind != cpu.OpLoad {
			continue
		}
		if op.Addr < lo {
			lo = op.Addr
		}
		if op.Addr > hi {
			hi = op.Addr
		}
	}
	if span := hi - lo + mem.LineBytes; span > 16<<10 {
		t.Errorf("spin working set = %d bytes, want <= 16 KiB (cache resident)", span)
	}
}

func TestStopperTerminatesPrograms(t *testing.T) {
	st := &Stopper{}
	p := Spin(st, 0)
	if _, ok := p.Next(); !ok {
		t.Fatal("fresh spinner refused to run")
	}
	st.Stop()
	if !st.stopped {
		t.Error("stopped false after Stop")
	}
	if _, ok := p.Next(); ok {
		t.Error("spinner kept running after Stop")
	}
}

func TestMemoryHogIntensityOrdering(t *testing.T) {
	// Higher intensity must mean a higher ratio of loads to compute
	// cycles.
	ratio := func(level Intensity) float64 {
		st := &Stopper{}
		p := MemoryHog(st, 0, 1<<20, level)
		var loads, cycles int64
		for _, op := range drainOps(p, 400) {
			switch op.Kind {
			case cpu.OpLoad:
				loads++
			case cpu.OpCompute:
				cycles += op.Cycles
			}
		}
		if cycles == 0 {
			return float64(loads)
		}
		return float64(loads) / float64(cycles)
	}
	prev := -1.0
	for _, l := range Levels() {
		r := ratio(l)
		if r <= prev {
			t.Errorf("intensity %v ratio %.4f not above previous %.4f", l, r, prev)
		}
		prev = r
	}
}

func TestMemoryHogStreamsFootprint(t *testing.T) {
	st := &Stopper{}
	const fp = 1 << 16
	p := MemoryHog(st, 0x100000, fp, VeryHigh)
	seen := map[uint64]bool{}
	for _, op := range drainOps(p, 5000) {
		if op.Kind == cpu.OpLoad {
			if op.Addr < 0x100000 || op.Addr >= 0x100000+fp {
				t.Fatalf("hog load outside footprint: 0x%x", op.Addr)
			}
			seen[op.Addr] = true
		}
	}
	if len(seen) < fp/mem.LineBytes/2 {
		t.Errorf("hog touched only %d distinct lines of %d", len(seen), fp/mem.LineBytes)
	}
}

func TestMemoryHogStopsAtIterationBoundary(t *testing.T) {
	st := &Stopper{}
	p := MemoryHog(st, 0, 1<<16, Low)
	p.Next() // mid-iteration
	st.Stop()
	// Must finish the current iteration then exit.
	alive := 0
	for {
		if _, ok := p.Next(); !ok {
			break
		}
		alive++
		if alive > 10 {
			t.Fatal("hog did not stop after iteration boundary")
		}
	}
}

func TestMemoryHogPanicsOnTinyFootprint(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("tiny footprint did not panic")
		}
	}()
	MemoryHog(&Stopper{}, 0, 1, Low)
}

func TestIntensityString(t *testing.T) {
	for _, l := range Levels() {
		if l.String() == "unknown" {
			t.Errorf("level %d renders as unknown", int(l))
		}
	}
	if Intensity(99).String() != "unknown" {
		t.Error("bogus level should render unknown")
	}
}
