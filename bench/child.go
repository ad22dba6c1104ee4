package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/system"
	"repro/internal/trace"
)

// childConfig is one workload run inside a child process.
type childConfig struct {
	workload string
	seed     uint64
	// seconds > 0 runs rounds until that much time has passed (at least
	// two, so every run checks rounds against each other); otherwise the
	// run has exactly rounds rounds.
	seconds  int
	rounds   int
	tiny     bool   // seconds-long smoke sizes (tests)
	traceDir string // "" = untraced
	update   bool
	workDir  string // serve's temporary result stores live here
}

// childResult is what a child reports to the parent, as the last line of
// its standard output.
type childResult struct {
	Workload  string             `json:"workload"`
	OracleKey string             `json:"oracle_key"`
	Checked   bool               `json:"checked"` // reference digests existed and were compared
	Rounds    int                `json:"rounds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Digests   map[string]string  `json:"digests"`
}

// child runs one workload's rounds and collects its metrics.
type child struct {
	cfg    childConfig
	w      workload
	oracle *oracle
	spans  *spanLog
	start  time.Time
	rss    []float64 // each round's peak resident set, MB

	mu  sync.Mutex // guards res.Failures, res.Failed and res.Attempted
	res childResult
}

func runChild(cfg childConfig) (childResult, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return childResult{}, err
	}
	refs, err := loadReferences()
	if err != nil {
		return childResult{}, err
	}
	key := oracleKey(w, cfg.seed)
	want := refs[key]
	if cfg.tiny {
		want = nil // tiny ops have no references
	}
	c := &child{cfg: cfg, w: w, oracle: newOracle(want, cfg.update), start: time.Now()}
	c.res = childResult{Workload: w.name, OracleKey: key, Checked: want != nil && !cfg.update,
		Metrics: map[string]float64{}}
	for _, set := range [][]metric{endToEnd, specific, perLayer} {
		for _, m := range set {
			c.res.Metrics[m.Name] = 0
		}
	}
	var stopProfile func() error
	if cfg.traceDir != "" {
		c.spans = &spanLog{workload: w.name, epoch: c.start}
		if stopProfile, err = startProfile(filepath.Join(cfg.traceDir, "cpu-"+w.name+".pprof")); err != nil {
			return childResult{}, err
		}
	}
	if w.ops != nil {
		c.runSim(w.ops(cfg.seed, cfg.tiny))
	} else if err := c.runServe(); err != nil {
		return childResult{}, err
	}
	if stopProfile != nil {
		if err := stopProfile(); err != nil {
			return childResult{}, err
		}
		if err := c.spans.appendTo(filepath.Join(cfg.traceDir, "spans.jsonl")); err != nil {
			return childResult{}, err
		}
	}
	c.res.Digests = c.oracle.digests()
	c.res.Metrics["error_rate"] = float64(c.res.Failed) / float64(max(c.res.Attempted, 1))
	c.res.Metrics["peak_rss_mb"] = median(c.rss)
	return c.res, nil
}

// more reports whether another round should run after done rounds.
func (c *child) more(done int) bool {
	if c.cfg.seconds > 0 {
		return done < 2 || time.Since(c.start).Seconds() < float64(c.cfg.seconds)
	}
	return done < c.cfg.rounds
}

func (c *child) attempt(n int) {
	c.mu.Lock()
	c.res.Attempted += n
	c.mu.Unlock()
}

func (c *child) fail(err error) {
	c.mu.Lock()
	c.res.Failed++
	c.res.Failures = append(c.res.Failures, err.Error())
	c.mu.Unlock()
}

// opTimes are one op's spans in one round, in seconds; whole runs from
// the collection before New to the end of the check.
type opTimes struct{ new, prep, run, check, whole float64 }

// simRun is one op's result in one round.
type simRun struct {
	times              opTimes
	counts             counts
	window             uint64
	out                outcome
	mallocs, allocSize uint64
}

// simOnce runs one op on a fresh machine and checks its output. A panic
// anywhere in the simulator fails the op, not the run.
//
// The op starts by collecting the garbage its predecessor left, so that
// cost counts in wall_s but not in this op's set-up: New allocates
// megabytes, and on a heap still full of the last run's garbage that
// allocation would pay for a collection cycle whose cost follows the
// host's scheduling latency more than the code.
func (c *child) simOnce(op simOp, parent int) (r simRun, err error) {
	g0 := time.Now()
	id := c.spans.open(parent, "op", op.name, g0)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", op.name, p)
		}
		c.spans.close(id, time.Now())
	}()
	runtime.GC()
	t0 := time.Now()
	c.spans.add(id, "gc", op.name, g0, t0)
	s, err := system.New(op.cfg)
	if err != nil {
		return r, fmt.Errorf("%s: %w", op.name, err)
	}
	t1 := time.Now()
	run := op.prepare(s)
	t2 := time.Now()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t3 := time.Now()
	r.out = run()
	t4 := time.Now()
	runtime.ReadMemStats(&m1)
	r.counts, r.window = machineCounts(s), windowFired(s)
	r.mallocs, r.allocSize = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	c.spans.add(id, "new", op.name, t0, t1)
	c.spans.add(id, "prepare", op.name, t1, t2)
	c.spans.add(id, "run", op.name, t3, t4)

	t5 := time.Now()
	if err = r.out.err; err != nil {
		err = fmt.Errorf("%s: %w", op.name, err)
	} else {
		err = c.oracle.check(op.name, r.out.canon)
	}
	t6 := time.Now()
	c.spans.add(id, "check", op.name, t5, t6)
	r.times = opTimes{new: t1.Sub(t0).Seconds(), prep: t2.Sub(t1).Seconds(),
		run: t4.Sub(t3).Seconds(), check: t6.Sub(t5).Seconds(), whole: t6.Sub(g0).Seconds()}
	return r, err
}

// runSim runs a simulation workload: every round runs every op once on a
// fresh machine. Host times are per-op minimums over rounds, summed over
// ops, so each op counts at its fastest round: interference from other
// tenants of a shared host comes and goes within a round. Counts come
// from each op's first good round and must repeat exactly in every later
// one.
func (c *child) runSim(ops []simOp) {
	times := make([][]opTimes, len(ops))
	first := make([]*simRun, len(ops))
	var setups, allocs, allocSizes []float64
	var window, events uint64
	for r := 0; c.more(r); r++ {
		resetPeakRSS()
		rid := c.spans.open(0, "round", "", time.Now())
		var setup float64
		var mallocs, allocSize uint64
		window, events = 0, 0
		for i, op := range ops {
			c.attempt(1)
			run, err := c.simOnce(op, rid)
			if err == nil && first[i] != nil && run.counts != first[i].counts {
				err = fmt.Errorf("%s: counters differ from round 1: %+v, round 1 %+v", op.name, run.counts, first[i].counts)
			}
			if err != nil {
				c.fail(err)
				continue
			}
			if first[i] == nil {
				first[i] = &run
			}
			times[i] = append(times[i], run.times)
			setup += run.times.new + run.times.prep
			mallocs += run.mallocs
			allocSize += run.allocSize
			window += run.window
			events += run.counts.Events
		}
		c.spans.close(rid, time.Now())
		setups = append(setups, setup)
		allocs = append(allocs, float64(mallocs))
		allocSizes = append(allocSizes, float64(allocSize))
		c.rss = append(c.rss, peakRSSMB())
		c.res.Rounds++
	}

	var total counts
	var sum opTimes // Σ over ops of each span's minimum over rounds
	var opLatency []float64
	var loads []trace.LoadResult
	thr := map[string]float64{}
	for i, op := range ops {
		if first[i] == nil {
			continue
		}
		total.add(first[i].counts)
		if l := first[i].out.load; l != nil {
			loads = append(loads, *l)
		}
		thr[op.name] = first[i].out.thr
		best := times[i][0]
		lat := best.new + best.prep + best.run
		for _, t := range times[i][1:] {
			best.new, best.prep, best.run = min(best.new, t.new), min(best.prep, t.prep), min(best.run, t.run)
			best.check, best.whole = min(best.check, t.check), min(best.whole, t.whole)
			lat = min(lat, t.new+t.prep+t.run)
		}
		sum.new, sum.prep, sum.run = sum.new+best.new, sum.prep+best.prep, sum.run+best.run
		sum.check, sum.whole = sum.check+best.check, sum.whole+best.whole
		opLatency = append(opLatency, lat)
	}

	m := c.res.Metrics
	req := float64(total.requests())
	m["wall_s"] = sum.whole
	m["setup_s"] = median(setups)
	m["op_p50_ms"] = median(opLatency) * 1e3
	m["sim_mreq_per_s"] = req / sum.run / 1e6
	m["span.new_ms"] = sum.new * 1e3
	m["span.prepare_ms"] = sum.prep * 1e3
	m["span.run_ms"] = sum.run * 1e3
	m["span.check_ms"] = sum.check * 1e3
	m["sim.events"] = float64(total.Events)
	m["sim.host_ns_per_event"] = sum.run * 1e9 / float64(total.Events)
	m["sim.window_event_frac"] = float64(window) / float64(max(events, 1))
	m["dram.cas"] = float64(total.DRAMCAS)
	m["dram.acts"] = float64(total.DRAMActs)
	m["dram.row_hit_rate"] = ratio(total.DRAMRowHits, total.DRAMRows)
	m["dram.queue_full"] = float64(total.DRAMQFull)
	m["pim.cas"] = float64(total.PIMCAS)
	m["pim.row_hit_rate"] = ratio(total.PIMRowHits, total.PIMRows)
	m["pim.queue_full"] = float64(total.PIMQFull)
	m["llc.hits"] = float64(total.LLCHits)
	m["llc.misses"] = float64(total.LLCMisses)
	m["llc.hit_rate"] = ratio(total.LLCHits, total.LLCHits+total.LLCMisses)
	m["llc.writebacks"] = float64(total.LLCWritebacks)
	m["cpu.busy_ms"] = float64(total.CPUBusy) / 1e9
	m["dce.bytes_moved"] = float64(total.DCEBytes)
	m["runtime.allocs_per_req"] = minOf(allocs) / req
	m["runtime.alloc_bytes_per_req"] = minOf(allocSizes) / req
	if len(loads) > 0 {
		var tot, queue trace.LatencyHist
		for _, l := range loads {
			mergeHist(&tot, &l.Total)
			mergeHist(&queue, &l.Queue)
			m["trace.retries"] += float64(l.Retries)
			m["trace.max_queued"] = max(m["trace.max_queued"], float64(l.MaxQueued))
		}
		m["trace.p99_ns"] = float64(tot.P99()) / 1e3
		m["trace.queue_p99_ns"] = float64(queue.P99()) / 1e3
	}
	if c.w.name == "transfer" {
		var speedups []float64
		for name, base := range thr {
			if rest, ok := strings.CutPrefix(name, "base "); ok && base > 0 {
				if mmu, ok := thr["pim-mmu "+rest]; ok {
					speedups = append(speedups, mmu/base)
				}
			}
		}
		m["model.xfer_speedup"] = geomean(speedups)
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mergeHist(dst, src *trace.LatencyHist) {
	for i, n := range src.Counts {
		dst.Counts[i] += n
	}
	dst.N += src.N
}

// startProfile starts a CPU profile written to path; the returned stop
// ends it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// resetPeakRSS starts a round's peak-resident-set measurement: it
// returns the heap's free memory to the OS, so the round starts from what
// is live rather than from however much free heap the scavenger has not
// yet released, and restarts the kernel's peak counter (VmHWM) there.
// Each round then reports its own peak, and one round's late collection
// moves one sample, not the run's result. Where /proc is unavailable the
// counter keeps the process peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set (VmHWM) since the last reset, in MB;
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
