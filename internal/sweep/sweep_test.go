package sweep

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got := MapN(100, workers, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapParallelMatchesSerial(t *testing.T) {
	job := func(i int) uint64 {
		// A deterministic per-index computation with enough work that
		// goroutines genuinely interleave.
		h := uint64(i) + 0x9e3779b97f4a7c15
		for j := 0; j < 10000; j++ {
			h ^= h >> 33
			h *= 0xff51afd7ed558ccd
		}
		return h
	}
	serial := MapN(64, 1, job)
	parallel := MapN(64, 8, job)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("out[%d]: serial %d != parallel %d", i, serial[i], parallel[i])
		}
	}
}

func TestMapRunsEveryJobExactlyOnce(t *testing.T) {
	var counts [257]atomic.Int32
	MapN(len(counts), 8, func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}
}

func TestMapZeroJobs(t *testing.T) {
	if got := MapN(0, 0, func(int) int { t.Fatal("job ran"); return 0 }); len(got) != 0 {
		t.Fatalf("MapN(0) returned %d results", len(got))
	}
}

func TestMapPanicPropagatesLowestIndex(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		jp, ok := r.(*JobPanic)
		if !ok {
			t.Fatalf("unexpected panic payload type %T: %v", r, r)
		}
		if jp.Value != "boom" {
			t.Fatalf("panic value = %v, want boom", jp.Value)
		}
		if jp.Index%3 != 0 {
			t.Fatalf("panic index = %d, want a multiple of 3", jp.Index)
		}
		if !strings.Contains(jp.Error(), "boom") {
			t.Fatalf("Error() = %q", jp.Error())
		}
	}()
	MapN(16, 4, func(i int) int {
		if i%3 == 0 {
			panic("boom")
		}
		return i
	})
}

// sentinelError is a distinct error type for asserting panic values
// survive the worker boundary with their identity intact.
type sentinelError struct{ code int }

func (e *sentinelError) Error() string { return "sentinel" }

// TestMapPanicPreservesTypedValue is the regression for the flattening
// bug: MapN used to re-raise panics through fmt.Sprintf, destroying typed
// panic values. The original value — here a specific error instance —
// must come back out of recover untouched, with the job index and the
// worker's stack attached.
func TestMapPanicPreservesTypedValue(t *testing.T) {
	sentinel := &sentinelError{code: 42}
	defer func() {
		r := recover()
		jp, ok := r.(*JobPanic)
		if !ok {
			t.Fatalf("unexpected panic payload type %T: %v", r, r)
		}
		if jp.Value != sentinel {
			t.Fatalf("panic value %v is not the original sentinel instance", jp.Value)
		}
		if jp.Index != 5 {
			t.Fatalf("panic index = %d, want 5", jp.Index)
		}
		if len(jp.Stack) == 0 || !strings.Contains(string(jp.Stack), "TestMapPanicPreservesTypedValue") {
			t.Fatalf("worker stack not captured:\n%s", jp.Stack)
		}
		if !errors.Is(jp, sentinel) {
			t.Fatal("errors.Is does not reach the wrapped sentinel")
		}
		var se *sentinelError
		if !errors.As(jp, &se) || se.code != 42 {
			t.Fatal("errors.As does not recover the typed value")
		}
		// Error() carries the worker stack so an uncaught re-raise prints
		// the traceback that points at the bug.
		if !strings.Contains(jp.Error(), "worker stack") {
			t.Fatalf("Error() missing stack section: %q", jp.Error())
		}
	}()
	MapN(8, 4, func(i int) int {
		if i == 5 {
			panic(sentinel)
		}
		return i
	})
}

func TestGrid(t *testing.T) {
	g := NewGrid(2, 3, 4)
	if g.Size() != 24 {
		t.Fatalf("Size = %d, want 24", g.Size())
	}
	// Exhaustive round trip, in nested-loop order.
	i := 0
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 4; c++ {
				if got := g.Index(a, b, c); got != i {
					t.Fatalf("Index(%d,%d,%d) = %d, want %d", a, b, c, got, i)
				}
				i++
			}
		}
	}
}

func TestGridPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero-dim":     func() { NewGrid(2, 0) },
		"coord-count":  func() { NewGrid(2, 2).Index(1) },
		"coord-range":  func() { NewGrid(2, 2).Index(1, 2) },
		"negative-dim": func() { NewGrid(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
