package harness

import (
	"flag"
	"io"
	"testing"

	"repro/internal/system"
)

// The shared Runner flags parse and resolve into the Runner, its result
// store and the output format.
func TestRunnerFlagsParseAndResolve(t *testing.T) {
	cacheDir := t.TempDir()
	for _, c := range []struct {
		args             []string
		workers, shards  int
		store            bool
		format           string
		runnerErr, fmErr bool
	}{
		{args: nil, format: "text"},
		{args: []string{"-workers", "1", "-shards", "2", "-cache-dir", cacheDir}, workers: 1, shards: 2, store: true, format: "text"},
		{args: []string{"-workers", "2", "-shards", "auto", "-cache", "off", "-cache-dir", cacheDir, "-format", "json"}, workers: 2, shards: system.Auto, format: "json"},
		{args: []string{"-shards", "many"}, runnerErr: true, format: "text"},
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
		if r.Workers != c.workers || r.Shards != c.shards {
			t.Errorf("%v: runner %+v, want workers %d shards %d", c.args, r, c.workers, c.shards)
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
