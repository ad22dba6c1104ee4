package main

import (
	"flag"
	"io"
	"testing"

	"repro/internal/harness"
	"repro/internal/system"
)

// Every CLI registers the same shared Runner flag set.
func TestSharedRunnerFlagsRegistered(t *testing.T) {
	fs := flag.NewFlagSet("pimmu-bench", flag.ContinueOnError)
	registerFlags(fs)
	for _, name := range harness.RunnerFlagNames() {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestFlagsParseAndResolve(t *testing.T) {
	fs := flag.NewFlagSet("pimmu-bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := registerFlags(fs)
	err := fs.Parse([]string{"-full", "-workers", "2", "-shards", "auto",
		"-cache", "off", "all"})
	if err != nil {
		t.Fatal(err)
	}
	if !*f.full {
		t.Error("-full not parsed")
	}
	r, store, err := f.runner.Runner()
	if err != nil {
		t.Fatal(err)
	}
	if store != nil || r.Cache != nil {
		t.Error("-cache off still opened a store")
	}
	if r.Workers != 2 || r.Shards != system.Auto {
		t.Errorf("runner not resolved from flags: %+v", r)
	}
}
