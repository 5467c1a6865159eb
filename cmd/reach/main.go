// Command reach is the comparison step of `make reach`: it holds the merged
// `go tool covdata func` report of every entry point (stdin) against the
// committed keep-list and fails when a function under internal/ that no
// entry point ever called is not listed, or when a listed one is stale. It
// also reads the `go tool covdata textfmt` profile of the same runs and
// prints how many statements under internal/ none of them executed. Then it
// type-checks the module, tests included, and fails the same way on a struct
// field under internal/ that no code outside _test.go files reads
// (fields.go): a field only assertions read is state kept for them alone.
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
	"fmt"
	"go/ast"
	"io"
	"os"
	"path"
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
// that is not one, and counts them.
func check(keep map[string]string, called map[string]bool) (never int, problems []string) {
	for key, hit := range called {
		if !hit {
			never++
			if keep[key] == "" {
				problems = append(problems, "unlisted: "+key+" is never called or read outside tests: delete it, or list it with a reason")
			}
		}
	}
	for key := range keep {
		if hit, known := called[key]; hit || !known {
			problems = append(problems, "stale: "+key+" is listed but is called or read now, or is gone")
		}
	}
	sort.Strings(problems)
	return never, problems
}

// statements reads a `go tool covdata textfmt` profile: how many of the
// statements under internal/ no run executed, and how many there are. A
// block that several binaries or runs report counts once, at its largest
// count.
func statements(profile string) (never, total int) {
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
		total += n
		if count[block] == 0 {
			never += n
		}
	}
	return never, total
}

// floor is the statement line `make reach` prints.
func floor(never, total int) string {
	return fmt.Sprintf("%d of %d statements under internal/ never executed (%.1f %%)", never, total, 100*float64(never)/float64(total))
}

// fieldLine is `make reach`'s field line: the walk's fields, the exported
// ones among them and those only tests read.
func fieldLine(walk map[string]int) string {
	exported, tests := 0, 0
	for key, w := range walk {
		if ast.IsExported(key[strings.LastIndexAny(key, ". ")+1:]) {
			exported++
		}
		if w == testRead {
			tests++
		}
	}
	return fmt.Sprintf("%d struct fields under internal/, %d exported, 0 unread outside the keep-list, %d read only by tests", len(walk), exported, tests)
}

// reasonKinds are the keep-list reasons by kind (the part before any colon),
// in the order summary prints them.
var reasonKinds = []string{"paper", "safety", "pinned", "test-reference", "debug"}

// summary counts the keep-list by reason kind, the function lines and then
// the lines naming a field the walk knows.
func summary(keep map[string]string, walk map[string]int) string {
	n := map[string]int{}
	for key, reason := range keep {
		kind, _, _ := strings.Cut(reason, ":")
		if _, field := walk[key]; field {
			kind = "field " + kind
		}
		n[kind]++
	}
	var funcs, fields []string
	for _, kind := range reasonKinds {
		funcs = append(funcs, fmt.Sprintf("%s %d", kind, n[kind]))
		fields = append(fields, fmt.Sprintf("%s %d", kind, n["field "+kind]))
	}
	return "keep-list: " + strings.Join(funcs, ", ") + "; fields: " + strings.Join(fields, ", ")
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go tool covdata func -i DIR | reach KEEPLIST TEXTFMT-PROFILE")
		os.Exit(2)
	}
	text, err := os.ReadFile(os.Args[1])
	profile, err2 := os.ReadFile(os.Args[2])
	report, err3 := io.ReadAll(os.Stdin)
	if err != nil || err2 != nil || err3 != nil {
		fmt.Fprintln(os.Stderr, "reach:", err, err2, err3)
		os.Exit(2)
	}
	keep, problems := parseKeep(string(text))
	called := parseFunc(string(report))
	unrun, stmts := statements(string(profile))
	if len(called) == 0 || stmts == 0 {
		problems = append(problems, "the coverage report names no function or statement under internal/: the cover build recorded nothing")
	}
	walk, err := walkFields(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	funcs, who := len(called), map[int]int{}
	for key, w := range walk {
		called[key] = w == read // a field only tests read, or none, stands as a function never called
		who[w]++
	}
	never, more := check(keep, called)
	for _, p := range append(problems, more...) {
		fmt.Println("reach:", p)
	}
	if len(problems)+len(more) > 0 {
		os.Exit(1)
	}
	fmt.Printf("reach: %d of %d functions in internal/ are never called by any entry point; each is on the keep-list\n", never-who[unread]-who[testRead], funcs)
	fmt.Println("reach:", floor(unrun, stmts))
	fmt.Println("reach:", fieldLine(walk))
	fmt.Println("reach:", summary(keep, walk))
}
