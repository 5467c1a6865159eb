package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

const root = "../.." // the module root, from cmd/reach

// tree is the module, loaded and type-checked once for the whole test
// binary: every source rule reads this one load.
var tree struct {
	once sync.Once
	m    *module
	err  error
}

func loadTree(t *testing.T) *module {
	t.Helper()
	tree.once.Do(func() { tree.m, tree.err = loadModule(root) })
	if tree.err != nil {
		t.Fatal(tree.err)
	}
	return tree.m
}

// loadFixture loads one of the fixture modules under testdata.
func loadFixture(t *testing.T, dir string) *module {
	t.Helper()
	m, err := loadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGateNamesUnlistedAndStale runs the comparison step on a canned
// `go tool covdata func` report, so tier-1 holds the gate's logic without a
// cover build: one never-called function off the list and one listed
// function that is called now must both fail, each by name. A canned
// `go tool covdata textfmt` profile gives the ledger's coverage part.
func TestGateNamesUnlistedAndStale(t *testing.T) {
	const report = `repro/cmd/repro/main.go:35:			main			80.0%
repro/internal/arp/arp.go:95:			*Handler.Lookup		0.0%
repro/internal/arp/arp.go:120:			*Handler.Input		91.7%
repro/internal/dns/dns.go:49:			Encode			0.0%
repro/internal/fifo/fifo.go:24:			Cap			0.0%
repro/internal/fifo/fifo.go:90:			Cap			100.0%
repro/internal/sim/sim.go:39:			Time.String		0.0%
total							(statements)		79.1%
`
	keep, problems := parseKeep(`# comment
internal/arp *Handler.Lookup paper:Table1
internal/arp *Handler.Input paper:Table1
internal/sim Time.String debug:stringer
`)
	if len(problems) != 0 {
		t.Fatalf("well-formed keep-list rejected: %q", problems)
	}
	called := parseFunc(report)
	got := check(keep, called)
	want := []string{
		"stale: internal/arp *Handler.Input is listed but is called or read now, or is gone",
		"unlisted: internal/dns Encode is never called or read outside tests: delete it, or list it with a reason",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	// The keep-list by reason: a line naming a field the walk knows is a
	// field line. (The line counts here are the fixture module's.)
	src, err := source("testdata/fieldmod", keep, map[string]int{"internal/arp *Handler.Input": read})
	if err != nil {
		t.Fatal(err)
	}
	wantKeep := map[string]int{"keep_functions paper": 1, "keep_functions debug": 1, "keep_fields paper": 1}
	for _, kind := range reasonKinds {
		for _, key := range []string{"keep_functions " + kind, "keep_fields " + kind} {
			if src[key] != wantKeep[key] {
				t.Errorf("%q = %d, want %d", key, src[key], wantKeep[key])
			}
		}
	}

	// Two binaries report the first block: it ran once, so it counts once,
	// as executed. Blocks outside internal/ are not counted. A generic
	// method called through one instantiation is called.
	const profile = `mode: set
repro/cmd/repro/main.go:35.13,40.2 4 0
repro/internal/arp/arp.go:95.42,97.2 2 0
repro/internal/arp/arp.go:120.40,130.3 5 1
repro/internal/arp/arp.go:95.42,97.2 2 1
repro/internal/fifo/fifo.go:24.30,26.2 1 0
repro/internal/sim/sim.go:39.31,41.2 2 0
`
	wantCov := map[string]int{
		"functions": 5, "functions_never_called": 3,
		"statements": 10, "statements internal/arp": 7, "statements internal/fifo": 1, "statements internal/sim": 2,
		"statements_never_executed": 3, "statements_never_executed internal/arp": 0,
		"statements_never_executed internal/fifo": 1, "statements_never_executed internal/sim": 2,
	}
	if d := moved(wantCov, coverage(called, profile)); len(d) != 0 {
		t.Errorf("coverage part, want -> got:\n%s", strings.Join(d, "\n"))
	}

	// A deleted function is stale too.
	keep, _ = parseKeep("internal/arp *Handler.Gone paper:Table1\ninternal/dns Encode paper:Table1\n")
	got = check(keep, called)
	if !strings.Contains(strings.Join(got, "\n"), "stale: internal/arp *Handler.Gone ") {
		t.Errorf("internal/arp *Handler.Gone not reported stale in %q", got)
	}

	for _, bad := range []string{
		"internal/arp *Handler.Lookup",                             // no reason
		"internal/arp *Handler.Lookup because",                     // not from the fixed set
		"internal/arp *Handler.Lookup safety:speed",                // not a safety kind
		"internal/arp X paper:Table1\ninternal/arp X paper:Table1", // twice
	} {
		if _, problems := parseKeep(bad); len(problems) != 1 {
			t.Errorf("parseKeep(%q) problems = %q, want one", bad, problems)
		}
	}
}

// TestFieldGate type-checks the fixture module under testdata/fieldmod and
// holds its keep-list against it the way main does: a write-only field
// fails, a field read only by a test fails unless listed, a stale field line
// fails, and a tagged field, the fields of a map key and a listed one pass.
// The fixture's BENCH_reach.json holds its source part, the way
// TestLedgerHoldsTheTree holds the module's: the file passes as committed,
// and a line added to a copy of the fixture, or a keep-list line dropped,
// fails naming each key that moved.
func TestFieldGate(t *testing.T) {
	walk := walkFields(loadFixture(t, "testdata/fieldmod"))
	want := map[string]int{
		"internal/p T.WriteOnly": unread, "internal/p T.Kept": unread, "internal/p T.TestOnly": testRead,
		"internal/p T.TestListed": testRead, "internal/p T.Tagged": read, "internal/p T.Stale": read, "internal/p T.hits": read,
		"internal/p key.a": read, "internal/p key.b": read,
	}
	if fmt.Sprint(walk) != fmt.Sprint(want) {
		t.Errorf("fields by reader (0 none, 1 tests only, 2 other code):\n%v\nwant:\n%v", walk, want)
	}
	keep, _ := parseKeep("internal/p T.Kept paper:Fig14\ninternal/p T.Stale paper:Fig14\ninternal/p T.TestListed test-reference\n")
	called := map[string]bool{}
	for key, who := range walk {
		called[key] = who == read
	}
	got := check(keep, called)
	wantProblems := []string{
		"stale: internal/p T.Stale is listed but is called or read now, or is gone",
		"unlisted: internal/p T.TestOnly is never called or read outside tests: delete it, or list it with a reason",
		"unlisted: internal/p T.WriteOnly is never called or read outside tests: delete it, or list it with a reason",
	}
	if strings.Join(got, "\n") != strings.Join(wantProblems, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(wantProblems, "\n"))
	}

	if d := drift(t, "testdata/fieldmod", keep, walk); len(d) != 0 {
		t.Errorf("the fixture's BENCH_reach.json, committed -> recomputed:\n%s", strings.Join(d, "\n"))
	}
	dir := t.TempDir()
	for _, name := range []string{"go.mod", "BENCH_reach.json", "internal/p/p.go", "internal/p/p_test.go"} {
		b, err := os.ReadFile(filepath.Join("testdata/fieldmod", name))
		if name == "internal/p/p.go" {
			b = append(b, "// one more line\n"...)
		}
		if err == nil {
			err = os.MkdirAll(filepath.Join(dir, filepath.Dir(name)), 0o755)
		}
		if err := cmp.Or(err, os.WriteFile(filepath.Join(dir, name), b, 0o644)); err != nil {
			t.Fatal(err)
		}
	}
	delete(keep, "internal/p T.Kept")
	got = drift(t, dir, keep, walk)
	wantDrift := []string{`"keep_fields paper" 2 -> 1`, `"lines internal/p" 26 -> 27`, `"lines" 26 -> 27`}
	if strings.Join(got, "\n") != strings.Join(wantDrift, "\n") {
		t.Errorf("drift:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(wantDrift, "\n"))
	}
}

// TestLedgerHoldsTheTree recomputes the source part of the committed
// BENCH_reach.json (the field walk, the keep-list by reason and the line
// counts) and fails naming each key whose value differs. The coverage
// part needs the cover runs: `make reach` rewrites the whole file.
func TestLedgerHoldsTheTree(t *testing.T) {
	text, err := os.ReadFile("keep.txt")
	if err != nil {
		t.Fatal(err)
	}
	keep, _ := parseKeep(string(text))
	for _, d := range drift(t, root, keep, walkFields(loadTree(t))) {
		t.Errorf("BENCH_reach.json: %s: run `make reach` and commit the file", d)
	}
}

// drift recomputes the source part of the ledger at dir and names each key
// whose committed value differs, as committed -> recomputed.
func drift(t *testing.T, dir string, keep map[string]string, walk map[string]int) []string {
	t.Helper()
	var l ledger
	b, err := os.ReadFile(filepath.Join(dir, "BENCH_reach.json"))
	if err == nil {
		err = json.Unmarshal(b, &l)
	}
	src, err2 := source(dir, keep, walk)
	if err := cmp.Or(err, err2); err != nil {
		t.Fatal(err)
	}
	return moved(l.Source, src)
}

// moved names every key whose value differs between two versions of a part
// of the ledger, a key only one of them holds included.
func moved(was, now map[string]int) (diff []string) {
	show := func(m map[string]int, k string) string {
		if v, ok := m[k]; ok {
			return strconv.Itoa(v)
		}
		return "none"
	}
	for _, m := range []map[string]int{was, now} {
		for k := range m {
			if a, b := show(was, k), show(now, k); a != b {
				diff = append(diff, fmt.Sprintf("%q %s -> %s", k, a, b))
			}
		}
	}
	slices.Sort(diff)
	return slices.Compact(diff)
}

// named is the defined type pkg declares as name, or nil.
func named(pkg *types.Package, name string) *types.Named {
	tn, _ := pkg.Scope().Lookup(name).(*types.TypeName)
	if tn == nil {
		return nil
	}
	t, _ := tn.Type().(*types.Named)
	return t
}

// member is the field or method t declares as name, not one promoted
// through an embedded field, or a method of its interface; nil if none.
func member(t *types.Named, name string) types.Object {
	if t == nil {
		return nil
	}
	obj, index, _ := types.LookupFieldOrMethod(t, true, t.Obj().Pkg(), name)
	if v, ok := obj.(*types.Var); len(index) != 1 || ok && v.Embedded() {
		return nil
	}
	return obj
}

// declares reports whether pkg declares name as covdata and the keep-list
// spell it: a function (Encode), a method by its receiver (MAC.String,
// *Handler.Cached; a method of a generic type by its bare name) or a field
// (T.F).
func declares(pkg *types.Package, name string) bool {
	typ, name, dotted := strings.Cut(name, ".")
	if !dotted {
		if _, ok := pkg.Scope().Lookup(typ).(*types.Func); ok {
			return true
		}
		for _, n := range pkg.Scope().Names() {
			if t := named(pkg, n); t != nil && t.TypeParams().Len() > 0 && member(t, typ) != nil {
				return true
			}
		}
		return false
	}
	base, star := strings.CutPrefix(typ, "*")
	t := named(pkg, base)
	obj := member(t, name)
	if !star {
		return obj != nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || t.TypeParams().Len() > 0 { // covdata drops a generic receiver
		return false
	}
	_, ptr := fn.Type().(*types.Signature).Recv().Type().(*types.Pointer)
	return ptr
}

// moduleImports is which module packages each directory's non-test files
// import.
func moduleImports(m *module) map[string][]string {
	imports := map[string][]string{}
	for _, f := range m.files {
		if f.test {
			continue
		}
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); strings.HasPrefix(p, m.path+"/") {
				imports[f.dir] = append(imports[f.dir], strings.TrimPrefix(p, m.path+"/"))
			}
		}
	}
	return imports
}

// linkedFrom is every module package the given directories import, directly
// or through other packages.
func linkedFrom(imports map[string][]string, dirs ...string) map[string]bool {
	linked := map[string]bool{}
	var link func(d string)
	link = func(d string) {
		for _, p := range imports[d] {
			if !linked[p] {
				linked[p] = true
				link(p)
			}
		}
	}
	for _, d := range dirs {
		link(d)
	}
	return linked
}

// TestDNSApplianceLinksNoStorage: the DNS appliance's response memo lives in
// dns, so the appliance links no storage library (Table 2's point: an
// appliance carries only the libraries it uses).
func TestDNSApplianceLinksNoStorage(t *testing.T) {
	linked := linkedFrom(moduleImports(loadTree(t)), "examples/dnsserver")
	if !linked["internal/dns"] {
		t.Fatal("examples/dnsserver does not import internal/dns: the import walk is broken")
	}
	if linked["internal/storage"] {
		t.Error("examples/dnsserver imports internal/storage, directly or through another package")
	}
}

// retiredIDs are registry ids the frozen benchmark/README.md still pins
// that the program no longer registers, each with the reason; layers.go sums
// a missing counter as 0. An id listed here must appear in no source under
// internal/.
var retiredIDs = map[string]string{
	"sim_cluster_late_deliveries_total": "exact W-wide epochs deliver every cross-shard send on time; a late one panics",
}

// TestKeepListAndPinnedSurface reads the type-checked tree: every
// keep-list line names a function or field that exists and gives a reason
// from the fixed set, every package under internal/ is imported, directly or
// through other packages, by a non-test file outside internal/ (the cover build
// cannot see a package nothing links), and every symbol of
// benchmark/README.md's "Pinned API surface" still exists — so a deletion
// that strands the keep-list or breaks the benchmark's contract fails
// tier-1, before anyone runs the cover build. The one exception is
// retiredIDs below.
func TestKeepListAndPinnedSurface(t *testing.T) {
	text, err := os.ReadFile("keep.txt")
	if err != nil {
		t.Fatal(err)
	}
	keep, problems := parseKeep(string(text))
	for _, p := range problems {
		t.Error(p)
	}
	mod := loadTree(t)
	dir := func(d string) *types.Package {
		if len(mod.lib[d]) == 0 {
			t.Fatalf("%s: no such package", d)
		}
		pkg, _ := mod.Import(mod.path + "/" + d)
		return pkg
	}
	for key := range keep {
		d, fn, _ := strings.Cut(key, " ")
		if !strings.HasPrefix(d, "internal/") {
			t.Errorf("keep-list: %s: not a package under internal/", key)
			continue
		}
		if !declares(dir(d), fn) {
			t.Errorf("keep-list: %s: no such function or field in %s", key, d)
		}
	}

	imports := moduleImports(mod)
	literals := map[string]bool{} // metric ids and CPU names are pinned as strings
	for _, f := range mod.files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		ast.Inspect(f.File, func(n ast.Node) bool {
			if l, ok := n.(*ast.BasicLit); ok && l.Kind == token.STRING {
				s, _ := strconv.Unquote(l.Value)
				literals[s] = true
			}
			return true
		})
	}

	readme, err := os.ReadFile(filepath.Join(root, "benchmark/README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## Pinned API surface")
	if !ok {
		t.Fatal("benchmark/README.md has no \"Pinned API surface\" section")
	}
	if next := strings.Index(section, "\n## "); next >= 0 {
		section = section[:next]
	}
	var internal []string // every package dir under internal/
	for _, f := range mod.files {
		if strings.HasPrefix(f.dir, "internal/") && !slices.Contains(internal, f.dir) {
			internal = append(internal, f.dir)
		}
	}
	var entries []string
	for d := range imports {
		if !strings.HasPrefix(d, "internal/") {
			entries = append(entries, d)
		}
	}
	linked := linkedFrom(imports, entries...)
	for _, d := range internal {
		if !linked[d] {
			t.Errorf("%s: no entry point imports it, so no cover build can measure it: give it one, or delete it", d)
		}
	}
	anyMember := func(name string) bool {
		for _, d := range internal {
			pkg := dir(d)
			for _, n := range pkg.Scope().Names() {
				if member(named(pkg, n), name) != nil {
					return true
				}
			}
		}
		return false
	}
	var (
		header   = regexp.MustCompile("^`(\\w+)`(?: \\(through [^)]*\\))?: (.*)$")
		tick     = regexp.MustCompile("`([^`]+)`")
		method   = regexp.MustCompile(`^(?:\(\*(\w+)\)|(\w+))\.(\w+)$`)
		composed = regexp.MustCompile(`^(\w+)\{([\w, ]+)\}$`)
	)
	checked := 0
	for _, line := range strings.Split(section, "\n") {
		line, ok := strings.CutPrefix(line, "* ")
		if !ok {
			continue
		}
		for _, seg := range strings.Split(line, "; ") {
			m := header.FindStringSubmatch(seg)
			if m == nil { // "registry ids read by ...", "CPU names ...": pinned strings
				_, ids, _ := strings.Cut(seg, ": ")
				if strings.HasPrefix(seg, "CPU names") {
					ids = seg
				}
				for _, tk := range tick.FindAllStringSubmatch(ids, -1) {
					id, _, _ := strings.Cut(tk[1], "{")
					checked++
					if why, ok := retiredIDs[id]; ok {
						if literals[id] {
							t.Errorf("pinned: %q is registered again; drop it from retiredIDs (%s)", id, why)
						}
						continue
					}
					if !literals[id] {
						t.Errorf("pinned: string %q appears in no non-test source under internal/", id)
					}
				}
				continue
			}
			pkg, ix, cur := m[1], dir("internal/"+m[1]), ""
			for _, loc := range tick.FindAllStringSubmatchIndex(m[2], -1) {
				tk, before := m[2][loc[2]:loc[3]], m[2][:loc[0]]
				checked++
				if strings.Count(before, "(") > strings.Count(before, ")") {
					// "(`Bind`)" after a field: a member of that field's type.
					if !anyMember(strings.TrimPrefix(tk, ".")) {
						t.Errorf("pinned: %s: (%s): no type under internal/ has such a member", pkg, tk)
					}
					continue
				}
				switch mm, cm := method.FindStringSubmatch(tk), composed.FindStringSubmatch(tk); {
				case mm != nil:
					cur = mm[1] + mm[2]
					if member(named(ix, cur), mm[3]) == nil {
						t.Errorf("pinned: %s.%s has no method or field %s", pkg, cur, mm[3])
					}
				case cm != nil:
					cur = cm[1]
					for _, f := range strings.Split(cm[2], ", ") {
						if member(named(ix, cur), f) == nil {
							t.Errorf("pinned: %s.%s has no field %s", pkg, cur, f)
						}
					}
				case strings.HasPrefix(tk, "."):
					if member(named(ix, cur), tk[1:]) == nil {
						t.Errorf("pinned: %s.%s has no method or field %s", pkg, cur, tk[1:])
					}
				case ix.Scope().Lookup(tk) == nil:
					t.Errorf("pinned: package %s declares no %s", pkg, tk)
				}
			}
		}
	}
	if checked < 150 {
		t.Errorf("only %d pinned names checked: the \"Pinned API surface\" section no longer parses", checked)
	}
}
