package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
)

// TestGolden runs every invocation in invocations.txt, GOMAXPROCS at a time,
// and holds each stream to its committed golden; when all of them ran, it
// then names every golden that none wrote. After a deliberate change, `go run ./cmd/golden`
// rewrites them and the diff shows what moved.
func TestGolden(t *testing.T) {
	root, invs, err := load()
	if err != nil {
		t.Fatal(err)
	}
	listSources(root)
	traces, err := readTraces(root)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := build(root, tmp, invs); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	keys, ran := map[string]bool{}, 0
	t.Run("run", func(t *testing.T) {
		for _, inv := range invs {
			t.Run(inv.name, func(t *testing.T) {
				t.Parallel()
				outs, err := run(tmp, inv)
				if err != nil {
					t.Fatal(err)
				}
				for _, msg := range check(root, inv, outs, traces) {
					t.Error(msg)
				}
				mu.Lock()
				defer mu.Unlock()
				for _, o := range outs {
					keys[o.key] = true
				}
				ran++
			})
		}
	})
	if ran == len(invs) { // not under a -run that picks some
		for _, msg := range strays(root, keys, traces) {
			t.Error(msg)
		}
	}
}

// listSources lists every source directory of the module. The commands the
// check runs are built by a go build the go test cache cannot see; a listed
// directory is a test input, hashed with its files' sizes and mtimes, so an
// edit to any source re-runs the check instead of replaying a cached PASS.
func listSources(root string) {
	for _, dir := range []string{"cmd", "examples", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(string, os.DirEntry, error) error { return nil })
	}
	os.Stat(filepath.Join(root, "go.mod"))
}

// check compares one invocation's outputs with their goldens and returns a
// report for each that differs or has none.
func check(root string, inv invocation, outs []output, traces map[string]string) []string {
	var bad []string
	report := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf("%v\n  ", inv)+fmt.Sprintf(format, args...))
	}
	for _, o := range outs {
		if o.trace() {
			switch want, ok := traces[o.key]; {
			case !ok:
				report("%s has no line in %s (go run ./cmd/golden writes it)", o.stream, tracesFile)
			case want != string(o.data):
				report("%s differs from its line in %s (sha256 bytes lines):\n    golden: %s\n    got:    %s",
					o.stream, tracesFile, want, o.data)
			}
			continue
		}
		file := goldenFile(o.key)
		want, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			report("%s has no golden %s (go run ./cmd/golden writes it)", o.stream, file)
			continue
		}
		if n, w, g := firstDiff(want, o.data); n > 0 {
			report("%s differs from %s at line %d:\n    golden: %s\n    got:    %s", o.stream, file, n, w, g)
		}
	}
	return bad
}

// firstDiff returns the first line (from 1) at which got differs from want
// and that line of each, or 0 when they are equal.
func firstDiff(want, got []byte) (n int, w, g string) {
	if bytes.Equal(want, got) {
		return 0, "", ""
	}
	wl, gl := strings.SplitAfter(string(want), "\n"), strings.SplitAfter(string(got), "\n")
	line := func(lines []string, i int) string {
		if i >= len(lines) || lines[i] == "" {
			return "(end of stream)"
		}
		return strings.TrimSuffix(lines[i], "\n")
	}
	for i := 0; ; i++ {
		if i >= len(wl) || i >= len(gl) || wl[i] != gl[i] {
			return i + 1, line(wl, i), line(gl, i)
		}
	}
}

// readTraces parses traces.txt: trace name -> "sha256 bytes lines".
func readTraces(root string) (map[string]string, error) {
	b, err := os.ReadFile(filepath.Join(root, tracesFile))
	if err != nil {
		return nil, err
	}
	traces := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("%s: malformed line %q", tracesFile, line)
		}
		traces[f[3]] = strings.Join(f[:3], " ")
	}
	return traces, nil
}

// strays names every committed golden no invocation wrote.
func strays(root string, keys map[string]bool, traces map[string]string) []string {
	var bad []string
	files, _ := os.ReadDir(filepath.Join(root, testdata))
	for _, f := range files {
		if !keys[f.Name()] && testdata+"/"+f.Name() != tracesFile {
			bad = append(bad, fmt.Sprintf("%s/%s: no invocation writes it", testdata, f.Name()))
		}
	}
	for name := range traces {
		if !keys[name] {
			bad = append(bad, fmt.Sprintf("%s: %s: no invocation writes it", tracesFile, name))
		}
	}
	sort.Strings(bad)
	return bad
}

// writeFiles creates a module root holding the given files.
func writeFiles(t *testing.T, files map[string]string) (root string) {
	root = t.TempDir()
	for name, data := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestMismatchNamesInvocationStreamAndLine(t *testing.T) {
	root := writeFiles(t, map[string]string{testdata + "/x.out": "a\nb\nc\n", testdata + "/x.json": "{}\n"})
	inv := invocation{"x", []string{"repro", "-experiment", "fig5"}}
	outs := []output{
		{"stdout", "x.out", []byte("a\nB\nc\n")},
		{"x.json", "x.json", []byte("{}\n")},
		{"x.trace", "x.trace", []byte("bbb 2 1")},
	}
	got := check(root, inv, outs, map[string]string{"x.trace": "aaa 2 1"})
	if len(got) != 2 {
		t.Fatalf("got %d reports, want 2 (stdout, trace):\n%s", len(got), strings.Join(got, "\n"))
	}
	for i, want := range [][]string{
		{"x: repro -experiment fig5\n", "stdout differs from cmd/golden/testdata/x.out at line 2:", "golden: b\n", "got:    B"},
		{"x: repro -experiment fig5\n", "x.trace differs from its line in cmd/golden/testdata/traces.txt", "golden: aaa 2 1\n", "got:    bbb 2 1"},
	} {
		for _, s := range want {
			if !strings.Contains(got[i], s) {
				t.Errorf("report %d lacks %q:\n%s", i, s, got[i])
			}
		}
	}
	if n, w, g := firstDiff([]byte("a\nb\n"), []byte("a\nb\nc\n")); n != 3 || w != "(end of stream)" || g != "c" {
		t.Errorf("a longer stream: firstDiff = %d %q %q, want 3, end of stream, c", n, w, g)
	}
}

func TestMissingAndStrayGoldensAreNamed(t *testing.T) {
	root := writeFiles(t, map[string]string{testdata + "/old.out": "", tracesFile: "aaa 1 0 old.trace\n"})
	traces, err := readTraces(root)
	if err != nil {
		t.Fatal(err)
	}
	inv := invocation{"new", []string{"repro", "-list"}}
	outs := []output{{"stdout", "new.out", nil}, {"new.trace", "new.trace", []byte("aaa 1 0")}}
	want := []string{
		"new: repro -list\n  stdout has no golden cmd/golden/testdata/new.out",
		"new: repro -list\n  new.trace has no line in cmd/golden/testdata/traces.txt",
	}
	if got := check(root, inv, outs, traces); len(got) != 2 || !strings.HasPrefix(got[0], want[0]) || !strings.HasPrefix(got[1], want[1]) {
		t.Errorf("missing goldens reported as:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	want = []string{
		"cmd/golden/testdata/old.out: no invocation writes it",
		"cmd/golden/testdata/traces.txt: old.trace: no invocation writes it",
	}
	if got := strays(root, map[string]bool{"new.out": true, "new.trace": true}, traces); !slices.Equal(got, want) {
		t.Errorf("stray goldens reported as %q, want %q", got, want)
	}
}

func TestParseListRejectsMalformedLines(t *testing.T) {
	good := "# comment\n\nfig5 repro -experiment fig5 -quick -json fig5.json\nfaults repro -loss 0.01 -jitter 200us\n"
	invs, err := parseList(strings.NewReader(good))
	if err != nil || len(invs) != 2 || invs[1].String() != "faults: repro -loss 0.01 -jitter 200us" {
		t.Fatalf("parseList(good) = %v, %v", invs, err)
	}
	for _, bad := range []string{
		"lonely\n",                       // a name without a command
		"a repro -list\na repro -list\n", // a name used twice
		"a/b repro -list\n",              // a name that is a path
		"a repro -json /tmp/a.json\n",    // an output outside the run directory
		"a repro -experiment 'fig5'\n",   // quoting run.sh would not honour
		"a repro -seed $SEED\n",          // shell syntax
	} {
		if _, err := parseList(strings.NewReader(bad)); err == nil {
			t.Errorf("parseList accepted %q", bad)
		}
	}
}

// TestListCoversEveryExperiment: a new experiment gets its quick goldens,
// with the registry dump and the trace when it takes -trace (builds a
// kernel).
func TestListCoversEveryExperiment(t *testing.T) {
	_, invs, err := load()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments.All() {
		line := fmt.Sprintf("repro -experiment %s -quick -json %[1]s.json", e.ID)
		if slices.Contains(e.Params, "trace") {
			line += fmt.Sprintf(" -metrics -trace %s.trace", e.ID)
		}
		want := invocation{e.ID, strings.Fields(line)}
		if !slices.ContainsFunc(invs, func(inv invocation) bool { return inv.String() == want.String() }) {
			t.Errorf("invocations.txt lacks %q", want)
		}
	}
}
