// Package sweep fans independent simulations across goroutines with
// deterministic result ordering.
//
// A sweep job builds its own system.System (or any other self-contained
// state), runs it, and returns a result; because every simulated machine
// is single-threaded and fully deterministic, running jobs concurrently
// cannot change any result — only wall-clock time. MapN therefore
// returns exactly the slice a serial loop would have produced, byte for
// byte, regardless of the worker count. Experiments that print tables
// render from the ordered slice, so quick/full harness output is
// identical in serial and parallel runs.
//
// Every call names its worker count: <= 0 selects GOMAXPROCS, and 1
// forces the serial path for determinism audits.
package sweep

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// JobPanic wraps a panic raised inside a sweep job so it can cross the
// worker-goroutine boundary without losing anything: Value is the
// original panic value (typed errors and sentinels survive intact for
// recover-side inspection), Index is the job that raised it, and Stack is
// the panicking goroutine's stack — the one that actually points at the
// bug, which the re-raise on the caller's goroutine cannot show.
type JobPanic struct {
	Index int
	Value any
	Stack []byte
}

// Error makes a recovered *JobPanic usable as an error. It includes the
// worker stack: when the re-raised panic goes uncaught, the runtime
// prints Error(), and the caller-side traceback alone never shows where
// the job actually failed.
func (p *JobPanic) Error() string {
	return fmt.Sprintf("sweep: job %d panicked: %v\n\nworker stack:\n%s", p.Index, p.Value, p.Stack)
}

// Unwrap exposes Value when it is itself an error, so errors.Is/As reach
// through the wrapper.
func (p *JobPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// MapN runs job(i) for every i in [0, n) across workers goroutines
// (workers <= 0 selects GOMAXPROCS) and returns the results in index
// order. Jobs must be independent: each builds its own state and
// touches no shared mutables. A panicking job does not crash the process
// from a worker goroutine; the lowest-index panic is re-raised on the
// caller once all workers have stopped, wrapped in a *JobPanic that
// preserves the original panic value, the job index, and the worker
// goroutine's stack.
func MapN[R any](n, workers int, job func(i int) R) []R {
	out := make([]R, n)
	if n == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := range out {
			out[i] = job(i)
		}
		return out
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		fail    *JobPanic
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !runOne(out, i, job, &panicMu, &fail) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if fail != nil {
		panic(fail)
	}
	return out
}

// runOne executes one job, capturing a panic instead of killing the
// process. It reports whether the worker should continue.
func runOne[R any](out []R, i int, job func(int) R, mu *sync.Mutex, fail **JobPanic) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			mu.Lock()
			if *fail == nil || i < (*fail).Index {
				*fail = &JobPanic{Index: i, Value: r, Stack: stack}
			}
			mu.Unlock()
			ok = false
		}
	}()
	out[i] = job(i)
	return true
}

// Grid indexes the cross product of experiment dimensions, so a sweep
// over (direction x size x design) flattens to one job index and prints
// back in nested-loop order.
type Grid struct {
	dims []int
}

// NewGrid builds a grid; the first dimension varies slowest, exactly like
// the outermost loop of the serial nest it replaces.
func NewGrid(dims ...int) Grid {
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("sweep: non-positive grid dimension %v", dims))
		}
	}
	return Grid{dims: append([]int(nil), dims...)}
}

// Size is the total number of points.
func (g Grid) Size() int {
	n := 1
	for _, d := range g.dims {
		n *= d
	}
	return n
}

// Index flattens per-dimension coordinates.
func (g Grid) Index(coords ...int) int {
	if len(coords) != len(g.dims) {
		panic("sweep: coordinate count mismatch")
	}
	i := 0
	for k, c := range coords {
		if c < 0 || c >= g.dims[k] {
			panic(fmt.Sprintf("sweep: coordinate %d out of range [0,%d)", c, g.dims[k]))
		}
		i = i*g.dims[k] + c
	}
	return i
}
