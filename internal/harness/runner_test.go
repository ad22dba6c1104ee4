package harness

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/system"
)

// A sweep's compute runs exactly its planned jobs: job i's run gets job
// i's parameters on a machine built from job i's config, and its result
// is cached under job i's key, so a warm compute simulates nothing.
func TestSweepComputesPlannedJobs(t *testing.T) {
	resultcache.SetCodeVersion("sweep-test")
	defer resultcache.SetCodeVersion("")
	store, err := resultcache.Open(t.TempDir(), resultcache.ReadWrite)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Cache: store, Workers: 2}
	build := func(run func(string, *system.System) string) *Sweep[string, string] {
		sw := NewSweep(len(system.Designs()), run)
		for _, d := range system.Designs() {
			sw.Add(r.job(d, "sweep-test design="+d.String()), d.String())
		}
		return sw
	}
	cold := build(func(p string, s *system.System) string { return p + " on " + s.Cfg.Design.String() }).Compute(r)
	for i, d := range system.Designs() {
		if want := d.String() + " on " + d.String(); cold[i] != want {
			t.Errorf("result %d = %q, want %q", i, cold[i], want)
		}
	}
	warm := build(func(p string, _ *system.System) string {
		t.Errorf("warm compute simulated %q", p)
		return ""
	}).Compute(r)
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("warm results %q, want %q", warm, cold)
	}
}

// The shared Runner flags parse and resolve into the Runner, its result
// store and the output format.
func TestRunnerFlagsParseAndResolve(t *testing.T) {
	cacheDir := t.TempDir()
	for _, c := range []struct {
		args             []string
		workers          int
		store            bool
		format           string
		runnerErr, fmErr bool
	}{
		{args: nil, format: "text"},
		{args: []string{"-workers", "1", "-cache-dir", cacheDir}, workers: 1, store: true, format: "text"},
		{args: []string{"-workers", "2", "-cache", "off", "-cache-dir", cacheDir, "-format", "json"}, workers: 2, format: "json"},
		{args: []string{"-cache", "sometimes", "-cache-dir", cacheDir}, runnerErr: true, format: "text"},
		{args: []string{"-format", "xml"}, fmErr: true},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := RegisterRunnerFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		format, err := f.Format()
		if (err != nil) != c.fmErr || format != c.format {
			t.Errorf("%v: Format() = %q, %v", c.args, format, err)
		}
		r, store, err := f.Runner()
		if (err != nil) != c.runnerErr {
			t.Errorf("%v: Runner() error %v, want error: %v", c.args, err, c.runnerErr)
		}
		if err != nil {
			continue
		}
		if (store != nil) != c.store || (r.Cache != nil) != c.store {
			t.Errorf("%v: store %v, cache %v, want store: %v", c.args, store, r.Cache, c.store)
		}
		if r.Workers != c.workers {
			t.Errorf("%v: runner %+v, want workers %d", c.args, r, c.workers)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	RegisterRunnerFlags(fs)
	for _, name := range RunnerFlagNames() {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}
