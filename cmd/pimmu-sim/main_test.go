package main

import (
	"flag"
	"io"
	"testing"

	"repro/internal/harness"
)

// Every CLI registers the same shared Runner flag set.
func TestSharedRunnerFlagsRegistered(t *testing.T) {
	fs := flag.NewFlagSet("pimmu-sim", flag.ContinueOnError)
	registerFlags(fs)
	for _, name := range harness.RunnerFlagNames() {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestFlagsParseAndResolve(t *testing.T) {
	fs := flag.NewFlagSet("pimmu-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := registerFlags(fs)
	err := fs.Parse([]string{"-design", "base", "-mb", "4", "-dir", "from",
		"-workers", "1", "-shards", "2", "-cache-dir", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if *f.design != "base" || *f.mb != 4 || *f.dir != "from" {
		t.Error("sim flags not parsed")
	}
	r, store, err := f.runner.Runner()
	if err != nil {
		t.Fatal(err)
	}
	if store == nil || r.Cache == nil {
		t.Error("-cache-dir did not open a store")
	}
	if r.Workers != 1 || r.Shards != 2 {
		t.Errorf("runner not resolved from flags: %+v", r)
	}
}
