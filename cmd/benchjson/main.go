// benchjson converts `go test -bench -benchmem` output on stdin into a
// section of a JSON benchmark trajectory file:
//
//	go test -bench Fastpath -benchmem -benchtime 300x ./internal/bench | \
//	    go run ./cmd/benchjson -out BENCH_fastpath.json -section fastpath
//
// The file maps section -> benchmark name -> {ns_op, b_op, allocs_op}.
// Existing sections (e.g. the recorded pre-change "baseline") are preserved.
//
// Delta mode compares two benchmark files section by section:
//
//	go run ./cmd/benchjson -delta BENCH_fastpath.json new.json
//
// printing per-benchmark ns/op, B/op and allocs/op deltas and exiting
// nonzero when any benchmark's allocs/op rose — the CI guard for the fast
// path. At a fixed -benchtime count, allocs/op repeats exactly from run to
// run; ns/op and B/op move with the host and the collector, so they are
// printed, not gated.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

type row struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

func main() {
	out := flag.String("out", "BENCH_fastpath.json", "output JSON file")
	section := flag.String("section", "fastpath", "section name to write")
	delta := flag.Bool("delta", false, "compare two trajectory files: benchjson -delta old.json new.json")
	flag.Parse()

	if *delta {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchjson -delta old.json new.json"))
		}
		os.Exit(runDelta(flag.Arg(0), flag.Arg(1)))
	}

	rows := map[string]row{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through so the run stays readable
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(f[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip -GOMAXPROCS suffix
		}
		var r row
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				r.NsOp = v
			case "B/op":
				r.BOp = v
			case "allocs/op":
				r.AllocsOp = v
			}
		}
		rows[name] = r
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(rows) == 0 {
		fatal(fmt.Errorf("no benchmark lines seen on stdin"))
	}

	doc := map[string]map[string]row{}
	if b, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(b, &doc); err != nil {
			fatal(fmt.Errorf("parse existing %s: %w", *out, err))
		}
	}
	doc[*section] = rows
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote section %q (%d benchmarks) to %s\n", *section, len(rows), *out)
}

// loadDoc reads a trajectory file: section -> name -> {ns_op, b_op, allocs_op}.
func loadDoc(path string) map[string]map[string]row {
	b, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	doc := map[string]map[string]row{}
	if err := json.Unmarshal(b, &doc); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return doc
}

// runDelta prints per-benchmark deltas for every (section, benchmark) pair
// present in both files and returns the process exit code: nonzero when
// any allocs/op rose.
func runDelta(oldPath, newPath string) int {
	oldDoc, newDoc := loadDoc(oldPath), loadDoc(newPath)
	var sections []string
	for s := range newDoc {
		if _, ok := oldDoc[s]; ok {
			sections = append(sections, s)
		}
	}
	sort.Strings(sections)
	compared, failed := 0, 0
	for _, s := range sections {
		var names []string
		for n := range newDoc[s] {
			if _, ok := oldDoc[s][n]; ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			o, nw := oldDoc[s][n], newDoc[s][n]
			compared++
			verdict := "ok"
			if nw.AllocsOp > o.AllocsOp {
				verdict = "REGRESSION"
				failed++
			}
			fmt.Printf("%-10s %-24s ns/op %12.0f -> %12.0f (%+6.1f%%)  B/op %8.0f -> %8.0f (%+6.1f%%)  allocs/op %6.0f -> %6.0f  %s\n",
				s, n, o.NsOp, nw.NsOp, pct(o.NsOp, nw.NsOp)*100, o.BOp, nw.BOp, pct(o.BOp, nw.BOp)*100, o.AllocsOp, nw.AllocsOp, verdict)
		}
	}
	if compared == 0 {
		fatal(fmt.Errorf("no common (section, benchmark) pairs between %s and %s", oldPath, newPath))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d/%d benchmarks allocate more per op than %s\n",
			failed, compared, oldPath)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks allocate no more per op than %s\n",
		compared, oldPath)
	return 0
}

// pct is the relative increase from old to new (0 when old is 0: a
// benchmark that allocated nothing before and nothing now).
func pct(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 1
	}
	return (new - old) / old
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
