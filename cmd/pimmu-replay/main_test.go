package main

import (
	"flag"
	"io"
	"testing"

	"repro/internal/harness"
)

// Every CLI registers the same shared Runner flag set (here on the
// replay and load subcommands' shared block).
func TestSharedRunnerFlagsRegistered(t *testing.T) {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	registerFlags(fs)
	for _, name := range harness.RunnerFlagNames() {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestFlagsParseAndResolve(t *testing.T) {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := registerFlags(fs)
	err := fs.Parse([]string{"-inflight", "32", "-noncacheable",
		"-shards", "1", "-cache", "off", "trace.bin"})
	if err != nil {
		t.Fatal(err)
	}
	if *f.inflight != 32 || !*f.noncache {
		t.Error("replay flags not parsed")
	}
	r, store, err := f.runner.Runner()
	if err != nil {
		t.Fatal(err)
	}
	if store != nil {
		t.Error("-cache off still opened a store")
	}
	if r.Shards != 1 {
		t.Errorf("runner not resolved from flags: %+v", r)
	}
}

func TestParseGaps(t *testing.T) {
	gaps, err := parseGaps("32, 16,8")
	if err != nil || len(gaps) != 3 {
		t.Fatalf("parseGaps = %v, %v", gaps, err)
	}
	if _, err := parseGaps("4,-1"); err == nil {
		t.Error("negative gap accepted")
	}
	if _, err := parseGaps(""); err == nil {
		t.Error("empty axis accepted")
	}
}
