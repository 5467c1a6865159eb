// Command reach is the comparison step of `make reach`: it holds the merged
// `go tool covdata func` report of every entry point (stdin) against the
// committed keep-list and fails when a function under internal/ that no
// entry point ever called is not listed, or when a listed one is stale. It
// type-checks the module, tests included, and fails the same way on a struct
// field under internal/ that no code outside _test.go files reads
// (fields.go): a field only assertions read is state kept for them alone.
// Every number it measures on the way, from the report, the `go tool covdata
// textfmt` profile of the same runs and the tree, is rewritten into
// BENCH_reach.json (ledger) whatever the verdict: its diff shows what moved.
//
// A keep-list line is "<package dir> <function or field> <reason>". The
// function is spelled as covdata prints it (Encode, MAC.String,
// *Handler.Cached; methods of generic types lose their receiver), the field
// as Type.Field. The reason is one of
// paper:<§/Table/Fig> (a library or mechanism the paper lists),
// safety:recovery|validation|dos, pinned:benchmark (benchmark/README.md
// "Pinned API surface"), test-reference (an oracle or observation point only
// assertions read) and debug:stringer. A package no entry point links is
// absent from the report, so the tier-1 test, not this gate, rejects it.
package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var reasonRE = regexp.MustCompile(`^(paper:\S+|safety:(recovery|validation|dos)|pinned:benchmark|test-reference|debug:stringer)$`)

// parseKeep reads the keep-list into "dir func" -> reason. Blank lines and
// # comments are skipped; anything else malformed is reported.
func parseKeep(text string) (keep map[string]string, problems []string) {
	keep = map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 3 || !reasonRE.MatchString(f[2]) || keep[f[0]+" "+f[1]] != "" {
			problems = append(problems, fmt.Sprintf("keep-list line %d: want one \"<dir> <func> <reason>\" per function, reason from the fixed set: %q", i+1, line))
			continue
		}
		keep[f[0]+" "+f[1]] = f[2]
	}
	return keep, problems
}

// parseFunc reads the covdata report: whether any entry point called each
// function under internal/ ("dir func" -> called).
func parseFunc(report string) (called map[string]bool) {
	called = map[string]bool{}
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line) // repro/internal/arp/arp.go:175: *Handler.GratuitousProbe 0.0%
		if len(f) != 3 || !strings.HasPrefix(f[0], "repro/internal/") {
			continue
		}
		file, _, _ := strings.Cut(strings.TrimPrefix(f[0], "repro/"), ":")
		dir := path.Dir(file)
		called[dir+" "+f[1]] = called[dir+" "+f[1]] || f[2] != "0.0%"
	}
	return called
}

// check names every never-called function (or unread field: main enters the
// fields in called too) missing from the keep-list and every keep-list entry
// that is not one.
func check(keep map[string]string, called map[string]bool) (problems []string) {
	for key, hit := range called {
		if !hit && keep[key] == "" {
			problems = append(problems, "unlisted: "+key+" is never called or read outside tests: delete it, or list it with a reason")
		}
	}
	for key := range keep {
		if hit, known := called[key]; hit || !known {
			problems = append(problems, "stale: "+key+" is listed but is called or read now, or is gone")
		}
	}
	sort.Strings(problems)
	return problems
}

// ledger is BENCH_reach.json, the one home of every number `make reach`
// measures. Coverage comes from the cover runs; Source from the tree alone,
// so tier-1 recomputes it. A per-package key is "<measure> <dir>".
type ledger struct {
	Coverage map[string]int `json:"coverage"`
	Source   map[string]int `json:"source"`
}

// coverage measures the cover runs: the functions under internal/ and those
// never called (from the covdata func report), and the statements and those
// never executed, in total and per package dir, from a `go tool covdata
// textfmt` profile. A block that several binaries or runs report counts
// once, at its largest count.
func coverage(called map[string]bool, profile string) map[string]int {
	l := map[string]int{"functions": len(called), "functions_never_called": 0}
	for _, hit := range called {
		if !hit {
			l["functions_never_called"]++
		}
	}
	count := map[string]int{} // "file:range" -> largest count
	size := map[string]int{}  // "file:range" -> statements in the block
	for _, line := range strings.Split(profile, "\n") {
		f := strings.Fields(line) // repro/internal/arp/arp.go:95.42,97.2 1 0
		if len(f) != 3 || !strings.HasPrefix(f[0], "repro/internal/") {
			continue
		}
		n, err1 := strconv.Atoi(f[1])
		c, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil {
			continue
		}
		size[f[0]] = n
		count[f[0]] = max(count[f[0]], c)
	}
	for block, n := range size {
		file, _, _ := strings.Cut(strings.TrimPrefix(block, "repro/"), ":")
		never := 0
		if count[block] == 0 {
			never = n
		}
		for _, key := range []string{"", " " + path.Dir(file)} {
			l["statements"+key] += n
			l["statements_never_executed"+key] += never
		}
	}
	return l
}

// reasonKinds are the keep-list reasons by kind (the part before any colon).
var reasonKinds = []string{"paper", "safety", "pinned", "test-reference", "debug"}

// source measures the tree: the struct fields the walk found, the exported
// ones and those only tests read; the keep-list by reason kind, function
// lines and field lines apart; and the non-test Go lines outside
// root/benchmark, in total and per directory, as `find . -name '*.go' !
// -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l` counts
// them.
func source(root string, keep map[string]string, walk map[string]int) (map[string]int, error) {
	l := map[string]int{"fields": len(walk), "fields_exported": 0, "fields_test_only": 0, "lines": 0}
	for key, w := range walk {
		if ast.IsExported(key[strings.LastIndexAny(key, ". ")+1:]) {
			l["fields_exported"]++
		}
		if w == testRead {
			l["fields_test_only"]++
		}
	}
	for _, kind := range reasonKinds {
		l["keep_functions "+kind], l["keep_fields "+kind] = 0, 0
	}
	for key, reason := range keep {
		kind, _, _ := strings.Cut(reason, ":")
		if _, field := walk[key]; field {
			l["keep_fields "+kind]++
		} else {
			l["keep_functions "+kind]++
		}
	}
	err := filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil || p == filepath.Join(root, "benchmark") {
			return cmp.Or(err, filepath.SkipDir)
		}
		if e.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(p)
		dir, _ := filepath.Rel(root, filepath.Dir(p))
		l["lines"] += bytes.Count(b, []byte("\n"))
		l["lines "+filepath.ToSlash(dir)] += bytes.Count(b, []byte("\n"))
		return err
	})
	return l, err
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go tool covdata func -i DIR | reach KEEPLIST TEXTFMT-PROFILE")
		os.Exit(2)
	}
	text, err := os.ReadFile(os.Args[1])
	profile, err2 := os.ReadFile(os.Args[2])
	report, err3 := io.ReadAll(os.Stdin)
	committed, err4 := os.ReadFile("BENCH_reach.json")
	var was ledger
	if err := cmp.Or(err, err2, err3, err4, json.Unmarshal(committed, &was)); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	keep, problems := parseKeep(string(text))
	called := parseFunc(string(report))
	m, err := loadModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	walk := walkFields(m)
	now := ledger{Coverage: coverage(called, string(profile))}
	if now.Coverage["functions"] == 0 || now.Coverage["statements"] == 0 {
		problems = append(problems, "the coverage report names no function or statement under internal/: the cover build recorded nothing")
		now.Coverage = was.Coverage // what was measured last stands
	}
	if now.Source, err = source(".", keep, walk); err == nil {
		out, _ := json.MarshalIndent(now, "", "  ")
		err = os.WriteFile("BENCH_reach.json", append(out, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	for key, w := range walk {
		called[key] = w == read // a field only tests read, or none, stands as a function never called
	}
	problems = append(problems, check(keep, called)...)
	for _, p := range problems {
		fmt.Println("reach:", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}
