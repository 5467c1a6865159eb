// Command golden rewrites the committed outputs that `go test ./cmd/golden`
// holds the tree to:
//
//	go run ./cmd/golden        # or: make golden
//
// invocations.txt lists deterministic invocations of the tree's commands.
// Each runs in an empty directory of its own, and every stream it produces is
// one golden:
//
//   - stdout is testdata/<name>.out, and a file F it writes is testdata/F,
//     both verbatim;
//   - a file named BENCH_*.json is the committed file of that name at the
//     root of the module;
//   - a trace (*.trace, up to tens of MB) is one line of testdata/traces.txt:
//     its sha256, bytes and lines, then its name.
//
// The test runs the same list and fails on the first line of any stream that
// differs, so a change that moves an output carries the moved lines in its
// own diff. cmd/reach/run.sh runs the same list under coverage.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

const (
	testdata   = "cmd/golden/testdata"
	tracesFile = testdata + "/traces.txt"
)

// An invocation is one line of invocations.txt: a name and an argv whose
// first word is a command under cmd/ or examples/.
type invocation struct {
	name string
	args []string
}

func (inv invocation) String() string { return inv.name + ": " + strings.Join(inv.args, " ") }

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_-]*$`)
	// cmd/reach/run.sh splits a line on blanks and hands the words to the
	// shell, and an output must land in the run directory: no quotes, no
	// shell syntax, no paths.
	wordRE = regexp.MustCompile(`^[A-Za-z0-9_.,:=+-]+$`)
)

// parseList reads an invocation list. Blank lines and # comments are
// skipped; any other line is a new name followed by plain words.
func parseList(r io.Reader) ([]invocation, error) {
	var invs []invocation
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 0 || strings.HasPrefix(f[0], "#"):
			continue
		case len(f) < 2 || !nameRE.MatchString(f[0]):
			return nil, fmt.Errorf("line %d: want a name and a command: %q", n, sc.Text())
		case seen[f[0]]:
			return nil, fmt.Errorf("line %d: name %q used twice", n, f[0])
		}
		for _, w := range f[1:] {
			if !wordRE.MatchString(w) {
				return nil, fmt.Errorf("line %d: %q is not a plain word", n, w)
			}
		}
		seen[f[0]] = true
		invs = append(invs, invocation{f[0], f[1:]})
	}
	return invs, sc.Err()
}

// load reads the invocation list of the module around the working directory.
func load() (root string, invs []invocation, err error) {
	gomod, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", nil, fmt.Errorf("go env GOMOD: %v", err)
	}
	root = filepath.Dir(string(bytes.TrimSpace(gomod)))
	list, err := os.ReadFile(filepath.Join(root, "cmd/golden/invocations.txt"))
	if err != nil {
		return "", nil, err
	}
	invs, err = parseList(bytes.NewReader(list))
	return root, invs, err
}

// build compiles every command the invocations name into dir.
func build(root, dir string, invs []invocation) error {
	args := []string{"build", "-o", dir}
	for _, inv := range invs {
		pkg := "./cmd/" + inv.args[0]
		if _, err := os.Stat(filepath.Join(root, pkg)); err != nil {
			pkg = "./examples/" + inv.args[0]
		}
		if !slices.Contains(args, pkg) {
			args = append(args, pkg)
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// An output is one stream of one invocation. key names its golden (see
// goldenFile); data is what is committed for it: the stream itself, or for a
// trace its sha256, bytes and lines.
type output struct {
	stream, key string
	data        []byte
}

func (o output) trace() bool { return strings.HasSuffix(o.key, ".trace") }

// goldenFile is the golden of a text stream, relative to the module root.
func goldenFile(key string) string {
	if strings.HasPrefix(key, "BENCH_") {
		return key
	}
	return testdata + "/" + key
}

// run executes inv with the commands built into tmp, in a fresh directory
// under it, and returns stdout and then each file written there. A file is
// read, a trace hashed, and deleted at once.
func run(tmp string, inv invocation) ([]output, error) {
	dir, err := os.MkdirTemp(tmp, inv.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(tmp, inv.args[0]), inv.args[1:]...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %v\n%s", inv, err, stderr.Bytes())
	}
	outs := []output{{"stdout", inv.name + ".out", stdout.Bytes()}}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		name, path := f.Name(), filepath.Join(dir, f.Name())
		if !strings.HasPrefix(name, inv.name+".") && !strings.HasPrefix(name, "BENCH_") {
			return nil, fmt.Errorf("%v: writes %s; name its outputs %s.<ext>", inv, name, inv.name)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		os.Remove(path) // frees the disk now; RemoveAll(dir) retries
		o := output{name, name, data}
		if o.trace() {
			o.data = fmt.Appendf(nil, "%x %d %d", sha256.Sum256(data), len(data), bytes.Count(data, []byte("\n")))
		}
		outs = append(outs, o)
	}
	return outs, nil
}

func main() {
	root, invs, err := load()
	if err == nil {
		err = update(root, invs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("golden: rewrote the outputs of %d invocations\n", len(invs))
}

// update runs every invocation and rewrites testdata/ and the BENCH_*.json
// files from what they wrote.
func update(root string, invs []invocation) error {
	tmp, err := os.MkdirTemp("", "golden") // the binaries and the run directories
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	if err := build(root, tmp, invs); err != nil {
		return err
	}
	var outs []output
	for _, inv := range invs {
		o, err := run(tmp, inv)
		if err != nil {
			return err
		}
		outs = append(outs, o...)
	}
	if err := os.RemoveAll(filepath.Join(root, testdata)); err != nil {
		return err
	}
	if err := os.Mkdir(filepath.Join(root, testdata), 0o755); err != nil {
		return err
	}
	var traces []byte
	for _, o := range outs {
		if o.trace() {
			traces = fmt.Appendf(traces, "%s %s\n", o.data, o.key)
		} else if err := os.WriteFile(filepath.Join(root, goldenFile(o.key)), o.data, 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(root, tracesFile), traces, 0o644)
}
