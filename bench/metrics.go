package main

// metric describes one reported number. Bound is the share of the
// baseline median by which the metric may worsen before -compare calls
// it worse; Floor, in the metric's unit, keeps that bound from shrinking
// below timer and scheduler noise on tiny values. Per-layer metrics carry
// no bound.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Floor  float64
}

// endToEnd is the set BENCHMARK.json names as end_to_end: what a user
// sees, defined on every workload, never zero. The workload-specific
// end-to-end metrics follow in specific.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: hostBound},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: hostBound, Floor: 0.005},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: hostBound},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: hostBound},
}

// hostBound bounds every host-measured metric. On a shared 2-CPU host the
// minimum over a run's rounds still drifts between runs minutes apart, by
// 2-13% of the median while the host is quiet and by up to a third while
// other tenants are busy (see README.md); a tighter bound would report
// that drift as regressions.
const hostBound = 0.25

// specific holds the end-to-end metrics that exist on some workloads
// only. -compare bounds them like endToEnd; BENCHMARK.json lists them
// under per_layer (zero where a workload has no such phase), because
// every end_to_end metric must exist on every workload.
var specific = []metric{
	{Name: "sim_mreq_per_s", Unit: "M/s", Better: "higher", Bound: hostBound},
	{Name: "error_rate", Unit: "ratio", Better: "lower"},
	{Name: "cold_s", Unit: "s", Better: "lower", Bound: hostBound},
	{Name: "warm_p50_ms", Unit: "ms", Better: "lower", Bound: hostBound},
	{Name: "warm_p99_ms", Unit: "ms", Better: "lower", Bound: hostBound},
	{Name: "warm_jobs_per_s", Unit: "1/s", Better: "higher", Bound: hostBound},
}

// appliesTo reports whether a workload-specific metric exists on a
// workload.
func appliesTo(name, workload string) bool {
	switch name {
	case "sim_mreq_per_s":
		return workload != "serve"
	case "cold_s", "warm_p50_ms", "warm_p99_ms", "warm_jobs_per_s":
		return workload == "serve"
	}
	return true
}

// profLayers are the packages (and runtime buckets) the CPU profile is
// folded into; see foldTop.
var profLayers = []string{
	"sim", "dram", "addrmap", "memsys", "cache", "cpu", "contend", "core",
	"pimms", "xfer", "trace", "harness", "sweep", "resultcache", "serve",
	"gc", "malloc", "runtime", "net", "json", "other",
}

// perLayer is the set BENCHMARK.json names as per_layer, reported by the
// traced run. Counts are exact for a commit; spans and profile shares
// are host time.
var perLayer = func() []metric {
	m := []metric{}
	for _, s := range specific {
		if s.Name != "error_rate" {
			m = append(m, metric{Name: s.Name, Unit: s.Unit, Better: s.Better})
		}
	}
	m = append(m, []metric{
		{Name: "sim.events", Unit: "count", Better: "lower"},
		{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower"},
		{Name: "sim.window_event_frac", Unit: "ratio", Better: "higher"},
		{Name: "dram.cas", Unit: "count", Better: "lower"},
		{Name: "dram.acts", Unit: "count", Better: "lower"},
		{Name: "dram.row_hit_rate", Unit: "ratio", Better: "higher"},
		{Name: "dram.queue_full", Unit: "count", Better: "lower"},
		{Name: "pim.cas", Unit: "count", Better: "lower"},
		{Name: "pim.row_hit_rate", Unit: "ratio", Better: "higher"},
		{Name: "pim.queue_full", Unit: "count", Better: "lower"},
		{Name: "llc.hits", Unit: "count", Better: "higher"},
		{Name: "llc.misses", Unit: "count", Better: "lower"},
		{Name: "llc.hit_rate", Unit: "ratio", Better: "higher"},
		{Name: "llc.writebacks", Unit: "count", Better: "lower"},
		{Name: "cpu.busy_ms", Unit: "ms", Better: "lower"},
		{Name: "dce.bytes_moved", Unit: "B", Better: "higher"},
		{Name: "trace.retries", Unit: "count", Better: "lower"},
		{Name: "trace.p99_ns", Unit: "ns", Better: "lower"},
		{Name: "trace.queue_p99_ns", Unit: "ns", Better: "lower"},
		{Name: "trace.max_queued", Unit: "count", Better: "lower"},
		{Name: "model.xfer_speedup", Unit: "x", Better: "higher"},
		{Name: "runtime.allocs_per_req", Unit: "count", Better: "lower"},
		{Name: "runtime.alloc_bytes_per_req", Unit: "B", Better: "lower"},
		{Name: "serve.deduped", Unit: "count", Better: "higher"},
		{Name: "serve.store_hits", Unit: "count", Better: "higher"},
		{Name: "serve.rejected", Unit: "count", Better: "lower"},
		{Name: "span.new_ms", Unit: "ms", Better: "lower"},
		{Name: "span.prepare_ms", Unit: "ms", Better: "lower"},
		{Name: "span.run_ms", Unit: "ms", Better: "lower"},
		{Name: "span.check_ms", Unit: "ms", Better: "lower"},
		{Name: "span.submit_us", Unit: "us", Better: "lower"},
		{Name: "span.wait_us", Unit: "us", Better: "lower"},
		{Name: "span.result_us", Unit: "us", Better: "lower"},
		{Name: "harness.plan_us", Unit: "us", Better: "lower"},
		{Name: "resultcache.get_us", Unit: "us", Better: "lower"},
	}...)
	for _, l := range profLayers {
		m = append(m, metric{Name: "prof." + l + "_pct", Unit: "%", Better: "lower"})
	}
	return m
}()

// unitOf finds a metric's unit across every table.
func unitOf(name string) string {
	for _, set := range [][]metric{endToEnd, specific, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
