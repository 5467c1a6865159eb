// Command reach is the comparison step of `make reach`: it holds the merged
// `go tool covdata func` report of every entry point (stdin) against the
// committed keep-list and fails when a function under internal/ that no
// entry point ever called is not listed, or when a listed one is stale.
//
// A keep-list line is "<package dir> <function> <reason>". The function is
// spelled as covdata prints it (Encode, MAC.String, *Handler.Lookup; methods
// of generic types lose their receiver). The reason is one of
// paper:<§/Table/Fig> (a library or mechanism the paper lists),
// safety:recovery|validation|dos, pinned:benchmark (benchmark/README.md
// "Pinned API surface"), test-reference (an oracle or observation point only
// assertions read) and debug:stringer. A package no entry point links is
// absent from the report, so the tier-1 test, not this gate, rejects it.
package main

import (
	"fmt"
	"io"
	"os"
	"path"
	"regexp"
	"sort"
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
		f := strings.Fields(line) // repro/internal/arp/arp.go:95: *Handler.Lookup 0.0%
		if len(f) != 3 || !strings.HasPrefix(f[0], "repro/internal/") {
			continue
		}
		file, _, _ := strings.Cut(strings.TrimPrefix(f[0], "repro/"), ":")
		dir := path.Dir(file)
		called[dir+" "+f[1]] = called[dir+" "+f[1]] || f[2] != "0.0%"
	}
	return called
}

// check names every never-called function missing from the keep-list and
// every keep-list entry that is not a never-called function, and counts the
// never-called ones.
func check(keep map[string]string, called map[string]bool) (never int, problems []string) {
	for key, hit := range called {
		if !hit {
			never++
			if keep[key] == "" {
				problems = append(problems, "unlisted: "+key+" is never called: delete it, or list it with a reason")
			}
		}
	}
	for key := range keep {
		if hit, known := called[key]; hit || !known {
			problems = append(problems, "stale: "+key+" is listed but is called now, or is gone")
		}
	}
	sort.Strings(problems)
	return never, problems
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go tool covdata func -i DIR | reach KEEPLIST")
		os.Exit(2)
	}
	text, err := os.ReadFile(os.Args[1])
	report, err2 := io.ReadAll(os.Stdin)
	if err != nil || err2 != nil {
		fmt.Fprintln(os.Stderr, "reach:", err, err2)
		os.Exit(2)
	}
	keep, problems := parseKeep(string(text))
	called := parseFunc(string(report))
	never, more := check(keep, called)
	if len(called) == 0 {
		more = append(more, "the coverage report names no function under internal/: the cover build recorded nothing")
	}
	for _, p := range append(problems, more...) {
		fmt.Println("reach:", p)
	}
	if len(problems)+len(more) > 0 {
		os.Exit(1)
	}
	fmt.Printf("reach: %d of %d functions in internal/ are never called by any entry point; each is on the keep-list\n", never, len(called))
}
