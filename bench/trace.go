package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, as written to spans.jsonl. Times
// are nanoseconds since the child process started measuring.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Workload string `json:"workload"`
	Op       string `json:"op,omitempty"`
}

// spanLog keeps a traced run's spans in memory until exit. A nil log
// records nothing: untraced runs time the same calls but keep no spans.
type spanLog struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

// open starts a span and returns its id (0 on a nil log), the parent of
// spans nested inside it; close ends it.
func (l *spanLog) open(parent int, name, op string, start time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Op: op, Workload: l.workload,
		Start: start.Sub(l.epoch).Nanoseconds()})
	return id
}

func (l *spanLog) close(id int, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = end.Sub(l.epoch).Nanoseconds()
}

// add records a finished span.
func (l *spanLog) add(parent int, name, op string, start, end time.Time) {
	l.close(l.open(parent, name, op, start), end)
}

// appendTo appends the spans as JSON lines to path.
func (l *spanLog) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// profileShares folds a CPU profile into per-layer flat shares (percent)
// with `go tool pprof -top`.
func profileShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", profile)
	cmd.Stderr = io.Discard
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", profile, err)
	}
	return foldTop(string(out))
}

// foldTop sums the flat% column of `pprof -top` output by layer and
// rescales the sums to 100.
func foldTop(top string) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, l := range profLayers {
		shares[l] = 0
	}
	var total float64
	inTable := false
	for _, line := range strings.Split(top, "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", line, err)
		}
		shares[layerOf(f[5])] += pct
		total += pct
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top output has no samples")
	}
	for k := range shares {
		shares[k] *= 100 / total
	}
	return shares, nil
}

// layerOf maps a profiled function to its layer: the repository package
// for simulator code, gc/malloc/runtime for the Go runtime, net and json
// for the serving stack, other for the rest (including this benchmark).
func layerOf(fn string) string {
	if i := strings.Index(fn, "["); i >= 0 {
		fn = fn[:i] // type arguments may name other packages
	}
	pkg := fn
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		if j := strings.Index(fn[i:], "."); j >= 0 {
			pkg = fn[:i+j]
		}
	} else if j := strings.Index(fn, "."); j >= 0 {
		pkg = fn[:j]
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		for _, l := range profLayers[:15] {
			if name == l {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime":
		return runtimeLayer(strings.TrimPrefix(fn, "runtime."))
	case strings.HasPrefix(pkg, "internal/runtime/"), pkg == "sync", pkg == "sync/atomic",
		pkg == "internal/sync", pkg == "runtime/pprof":
		return "runtime"
	case pkg == "encoding/json", pkg == "reflect":
		return "json"
	case pkg == "encoding/gob":
		return "sweep" // the sweep layer gob-encodes every cached result
	case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "internal/poll", pkg == "syscall",
		pkg == "bufio", strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "net"
	}
	return "other"
}

// runtimeLayer splits runtime functions into garbage collection,
// allocation and the rest (scheduler, maps, memmove, syscalls).
func runtimeLayer(fn string) string {
	for _, p := range []string{"gc", "(*gc", "scan", "mark", "greyobject", "findObject", "wbBuf",
		"bulkBarrier", "sweep", "bgsweep", "bgscavenge", "(*sweepLocked)", "(*mspan).sweep",
		"(*mspan).typePointersOf", "typePointers", "spanOf", "(*mheap).reclaim", "(*scavenger",
		"(*pageAlloc).scav", "(*mheap).freeSpan", "(*gcBits)", "(*mspan).markBits", "heapBitsSmall"} {
		if strings.HasPrefix(fn, p) {
			return "gc"
		}
	}
	for _, p := range []string{"malloc", "newobject", "newarray", "makeslice", "growslice", "makemap",
		"(*mcache)", "(*mcentral)", "(*mheap).alloc", "(*mheap).initSpan", "nextFreeFast", "heapSetType",
		"(*mspan).nextFreeIndex", "(*mspan).refillAllocCache", "(*mspan).init", "memclrNoHeapPointers",
		"rawstring", "rawbyteslice", "rawruneslice", "deductAssistCredit", "publicationBarrier"} {
		if strings.HasPrefix(fn, p) {
			return "malloc"
		}
	}
	return "runtime"
}
