package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/prim"
	"repro/internal/system"
	"repro/internal/trace"
)

// Each subcommand accepts exactly the flags of the tool it replaced:
// run, sim, replay and load add the shared Runner flags, the others
// register none of them.
func TestSubcommandFlags(t *testing.T) {
	own := map[string][]string{
		"list":     nil,
		"run":      {"full"},
		"sim":      {"design", "mb", "dir"},
		"cache-gc": {"cache-dir"},
		"record":   {"design", "kb", "dir", "o", "text"},
		"gen":      {"pattern", "n", "gap", "seed", "o", "text"},
		"inspect":  {"n"},
		"replay":   {"design", "inflight", "noncacheable"},
		"load":     {"process", "pattern", "gaps", "n", "slo-ns", "seed", "inflight", "noncacheable"},
		"prim":     {"scale", "list"},
		"map":      {"stream"},
		"cmds":     {"design", "kb", "channel", "n", "side"},
	}
	runner := map[string]bool{"run": true, "sim": true, "replay": true, "load": true}
	cmds := commands()
	if len(cmds) != len(own) {
		t.Errorf("%d subcommands, want %d", len(cmds), len(own))
	}
	for _, c := range cmds {
		t.Run(c.name, func(t *testing.T) {
			want := slices.Clone(own[c.name])
			if runner[c.name] {
				want = append(want, harness.RunnerFlagNames()...)
			}
			slices.Sort(want)
			var ue usageError
			if err := c.run([]string{"-h"}, nil); !errors.As(err, &ue) || !errors.Is(err, flag.ErrHelp) || ue.fs == nil {
				t.Fatalf("-h: %v, want a usage error carrying the flag set", err)
			}
			var got []string
			ue.fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
			if !slices.Equal(got, want) {
				t.Errorf("flags = %v, want %v", got, want)
			}
		})
	}
}

// run, sim and replay parse their own flags next to the Runner flags
// and resolve the Runner ones before planning: a good line runs with
// its own flags in effect, and a bad -format is a usage error.
func TestFlagsParseAndResolve(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.pmt")
	if err := trace.WriteFile(tr, trace.MustGenerate(trace.PatternStream, trace.DefaultGenConfig()), false); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	for _, c := range []struct {
		name string
		args []string
		want []string // substrings of stdout that show the own flags took effect
	}{
		{"sim", []string{"-design", "base", "-mb", "4", "-dir", "from",
			"-workers", "1", "-cache-dir", cacheDir},
			[]string{"design      Base\n", "direction   PIM->DRAM\n", "bytes       4194304 "}},
		{"run", []string{"-full", "-workers", "2", "-cache", "off", "table1"},
			[]string{"(full mode)"}},
		{"replay", []string{"-inflight", "32", "-noncacheable", "-cache", "off", tr},
			[]string{"design     Base+D+H+P\n", "records    16384 "}},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := runCommand(t, append([]string{c.name}, c.args...)...)
			if err != nil {
				t.Fatalf("%v: %v", c.args, err)
			}
			for _, w := range c.want {
				if !strings.Contains(string(out), w) {
					t.Errorf("output lacks %q:\n%s", w, out)
				}
			}
			var pos []string
			if c.name != "sim" {
				pos = c.args[len(c.args)-1:]
			}
			if def, err := runCommand(t, append([]string{c.name}, pos...)...); err != nil || string(def) == string(out) {
				t.Errorf("the flags changed nothing: default output %v", err)
			}
			bad := append([]string{c.name, "-format", "xml"}, pos...)
			var ue usageError
			if _, err := runCommand(t, bad...); !errors.As(err, &ue) {
				t.Errorf("%v: err = %v, want a usage error", bad, err)
			}
		})
	}
	if entries, err := os.ReadDir(cacheDir); err != nil || len(entries) == 0 {
		t.Errorf("sim -cache-dir did not open a store: %d entries, %v", len(entries), err)
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

func TestPrintHeadTail(t *testing.T) {
	xs := []int{1, 2, 3, 4}
	for _, c := range []struct {
		n    int
		want string
	}{
		{-1, "-- head --\n  ...\n-- tail --\n"},
		{0, "-- head --\n  ...\n-- tail --\n"},
		{1, "-- head --\n  1\n  ...\n-- tail --\n  4\n"},
		{2, "-- head --\n  1\n  2\n  3\n  4\n"}, // 2n == len: nothing elided
		{9, "-- head --\n  1\n  2\n  3\n  4\n"},
	} {
		var b strings.Builder
		printHeadTail(&b, xs, c.n)
		if b.String() != c.want {
			t.Errorf("n=%d:\n%s\nwant\n%s", c.n, b.String(), c.want)
		}
	}
	var b strings.Builder
	printHeadTail(&b, []int(nil), -3)
	if b.String() != "-- head --\n" {
		t.Errorf("empty list: %q", b.String())
	}
}

// Bad flag values are usage errors (exit 2), not panics inside a sweep
// job; a failure past the command line is a plain error (exit 1).
func TestErrorKinds(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.pmt")
	if err := trace.WriteFile(tr, trace.MustGenerate(trace.PatternStream, trace.DefaultGenConfig()), false); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args  []string
		usage bool
	}{
		{[]string{"replay", "-inflight", "0", tr}, true},
		{[]string{"replay", "-inflight", "-3", "-design", "all", tr}, true},
		{[]string{"replay", "-format", "xml", tr}, true},
		{[]string{"replay", "-nosuchflag", tr}, true},
		{[]string{"replay", tr, tr}, true},
		{[]string{"load", "-inflight", "0"}, true},
		{[]string{"load", "-pattern", "nope"}, true},
		{[]string{"load", "-process", "replay"}, true},
		{[]string{"load", "-n", "16", "-gaps", "8,0.0001"}, true},
		{[]string{"load", "-gaps", "NaN"}, true},
		{[]string{"load", "-gaps", "Inf"}, true},
		{[]string{"load", "-gaps", "-Inf"}, true},
		{[]string{"load", "-gaps", "1e20"}, true},
		{[]string{"load", "-gaps", "9223372036854776"}, true},
		{[]string{"load", "-n", "8192", "-gaps", "1e15"}, true},
		{[]string{"load", "-n", "1000000000000000", "-gaps", "0.001"}, true},
		{[]string{"gen", "-gap", "20000000000000000", "-n", "4", "-o", filepath.Join(dir, "g.pmt")}, true},
		{[]string{"gen", "-gap", "-1", "-o", filepath.Join(dir, "g.pmt")}, true},
		{[]string{"gen", "-gap", "9223372036854775", "-n", "4", "-o", filepath.Join(dir, "g.pmt")}, true},
		{[]string{"gen", "-n", "1000000000000000000", "-gap", "0", "-o", filepath.Join(dir, "g.pmt")}, true},
		{[]string{"sim", "-dir", "sideways"}, true},
		{[]string{"sim", "-mb", "1000000", "-design", "base"}, true},
		{[]string{"sim", "-mb", "17592186044416", "-design", "base"}, true},
		{[]string{"sim", "-mb", "0"}, true},
		{[]string{"record", "-kb", "100000000", "-o", filepath.Join(dir, "r.pmt")}, true},
		{[]string{"cmds", "-kb", "0"}, true},
		{[]string{"prim", "-scale", "NaN", "VA"}, true},
		{[]string{"prim", "-scale", "1e6", "VA"}, true},
		{[]string{"prim", "-scale", "-1", "VA"}, true},
		{[]string{"run", "-shards", "1", "fig8"}, true},
		{[]string{"sim", "-shards", "1"}, true},
		{[]string{"replay", "-shards", "1", tr}, true},
		{[]string{"load", "-shards", "1"}, true},
		{[]string{"run", "nope"}, true},
		{[]string{"cmds", "-n", "-1", "-channel", "9"}, true},
		{[]string{"cache-gc"}, true},
		{[]string{"inspect", filepath.Join(dir, "missing.pmt")}, false},
		{[]string{"replay", filepath.Join(dir, "missing.pmt")}, false},
	} {
		// Name the case without the temporary directory so its name is
		// the same on every run.
		name := strings.ReplaceAll(strings.Join(c.args, " "), dir+string(filepath.Separator), "")
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			_, err := runCommand(t, c.args...)
			var ue usageError
			if err == nil || errors.As(err, &ue) != c.usage {
				t.Errorf("err = %v (%T), want usage error: %v", err, err, c.usage)
			}
		})
	}
}

// fig15a, fig15b and headline plan one job per transfer, so once fig15a
// has filled a cache directory headline simulates nothing, and still
// prints what an uncached run prints.
func TestRunSharesTransfersAcrossExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	dir := t.TempDir()
	if _, err := runCommand(t, "run", "-cache-dir", dir, "fig15a"); err != nil {
		t.Fatal(err)
	}
	warm, err := runCommand(t, "run", "-cache-dir", dir, "headline")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := runCommand(t, "run", "headline")
	if err != nil {
		t.Fatal(err)
	}
	footer := regexp.MustCompile(`(?m)^---- headline done in \S+(; cache: (\d+) hits, (\d+) misses .*)? ----\n`)
	m := footer.FindSubmatch(warm)
	if m == nil || string(m[2]) != "12" || string(m[3]) != "0" {
		t.Errorf("warm headline footer %q, want 12 hits and 0 misses", m)
	}
	if w, c := footer.ReplaceAll(warm, nil), footer.ReplaceAll(cold, nil); string(w) != string(c) {
		t.Errorf("headline from fig15a's cache differs from an uncached run:\n%s\nwant\n%s", w, c)
	}
}

// `pimmu prim` is a view over the records fig16 reads: at fig16's quick
// scale it prints exactly fig16's phases for the workload.
func TestPrimMatchesFig16(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	e, _ := harness.ByName("fig16")
	phases := e.Compute(&harness.Runner{}, harness.Quick).([]prim.Phase)
	wi := slices.IndexFunc(prim.Suite(), func(w prim.Workload) bool { return w.Name == "VA" })
	var want strings.Builder
	for i, d := range []system.Design{system.Base, system.PIMMMU} {
		printPhase(&want, d, phases[2*wi+i])
	}
	got, err := runCommand(t, "prim", "-scale", "0.015625", "VA")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Errorf("pimmu prim VA:\n%s\nfig16's VA rows:\n%s", got, want.String())
	}
}
