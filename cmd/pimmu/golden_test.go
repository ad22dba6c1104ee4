package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the CLI golden files with current output")

// cliCases are a fixed set of cheap invocations whose stdout is pinned
// byte for byte in testdata/cli_*.golden at the repository root. They
// run in order in one scratch directory: gen writes the trace that
// inspect and replay read. Regenerate deliberately with:
//
//	go test ./cmd/pimmu -run CLIGolden -update
var cliCases = []struct {
	golden string
	args   []string
}{
	{"run_table1", []string{"run", "table1"}},
	{"run_table1_json", []string{"run", "-format", "json", "table1"}},
	{"list", []string{"list"}},
	{"sim_base", []string{"sim", "-design", "base", "-mb", "1"}},
	{"sim_base_json", []string{"sim", "-design", "base", "-mb", "1", "-format", "json"}},
	{"sim_all", []string{"sim", "-design", "all", "-mb", "1"}},
	{"map_stream", []string{"map", "-stream", "4"}},
	{"cmds", []string{"cmds", "-kb", "64", "-n", "4"}},
	{"prim_va", []string{"prim", "VA"}},
	{"prim_list", []string{"prim", "-list"}},
	{"gen", []string{"gen", "-n", "64", "-o", "g.pmt"}},
	{"inspect", []string{"inspect", "-n", "2", "g.pmt"}},
	{"replay_all", []string{"replay", "-design", "all", "g.pmt"}},
	{"replay_all_json", []string{"replay", "-design", "all", "-format", "json", "g.pmt"}},
	{"load", []string{"load", "-gaps", "8,2", "-n", "512"}},
	{"load_json", []string{"load", "-gaps", "8,2", "-n", "512", "-format", "json"}},
}

// doneIn matches the wall-clock part of a run footer, the only
// normalized text.
var doneIn = regexp.MustCompile(`(?m)^(---- \S+ done in )\S+( ----)$`)

// runCommand runs one subcommand line in-process and returns its
// stdout.
func runCommand(t *testing.T, args ...string) ([]byte, error) {
	t.Helper()
	for _, c := range commands() {
		if c.name == args[0] {
			var out bytes.Buffer
			err := c.run(args[1:], &out)
			return out.Bytes(), err
		}
	}
	t.Fatalf("no subcommand %q", args[0])
	return nil, nil
}

func TestCLIGolden(t *testing.T) {
	goldens, err := filepath.Abs(filepath.Join("..", "..", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	for _, c := range cliCases {
		out, err := runCommand(t, c.args...)
		if err != nil {
			t.Fatalf("pimmu %s: %v", strings.Join(c.args, " "), err)
		}
		got := doneIn.ReplaceAll(out, []byte("${1}X${2}"))
		path := filepath.Join(goldens, "cli_"+c.golden+".golden")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("pimmu %s: output differs from %s\n--- got ---\n%s\n--- want ---\n%s",
				strings.Join(c.args, " "), path, got, want)
		}
	}
}
