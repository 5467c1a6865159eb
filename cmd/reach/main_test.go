package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

const root = "../.." // the module root, from cmd/reach

// TestGateNamesUnlistedAndStale runs the comparison step on a canned
// `go tool covdata func` report, so tier-1 holds the gate's logic without a
// cover build: one never-called function off the list and one listed
// function that is called now must both fail, each by name. A canned
// `go tool covdata textfmt` profile gives the statement line.
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
	never, got := check(keep, called)
	want := []string{
		"stale: internal/arp *Handler.Input is listed but is called or read now, or is gone",
		"unlisted: internal/dns Encode is never called or read outside tests: delete it, or list it with a reason",
	}
	if never != 3 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("never-called = %d, want 3 (a generic method called through one instantiation is called)\nproblems:\n%s\nwant:\n%s",
			never, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got, want := summary(keep, map[string]int{"internal/arp *Handler.Input": read}), "keep-list: paper 1, safety 0, pinned 0, test-reference 0, debug 1; fields: paper 1, safety 0, pinned 0, test-reference 0, debug 0"; got != want {
		t.Errorf("summary = %q, want %q", got, want)
	}

	// Two binaries report the first block: it ran once, so it counts once,
	// as executed. Blocks outside internal/ are not counted.
	const profile = `mode: set
repro/cmd/repro/main.go:35.13,40.2 4 0
repro/internal/arp/arp.go:95.42,97.2 2 0
repro/internal/arp/arp.go:120.40,130.3 5 1
repro/internal/arp/arp.go:95.42,97.2 2 1
repro/internal/fifo/fifo.go:24.30,26.2 1 0
repro/internal/sim/sim.go:39.31,41.2 2 0
`
	if got, want := floor(statements(profile)), "3 of 10 statements under internal/ never executed (30.0 %)"; got != want {
		t.Errorf("statement line = %q, want %q", got, want)
	}

	// A deleted function is stale too.
	keep, _ = parseKeep("internal/arp *Handler.Gone paper:Table1\ninternal/dns Encode paper:Table1\n")
	_, got = check(keep, called)
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
// The field line counts the exported ones and the test-only ones.
func TestFieldGate(t *testing.T) {
	walk, err := walkFields("testdata/fieldmod")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"internal/p T.WriteOnly": unread, "internal/p T.Kept": unread, "internal/p T.TestOnly": testRead,
		"internal/p T.TestListed": testRead, "internal/p T.Tagged": read, "internal/p T.Stale": read, "internal/p T.hits": read,
		"internal/p key.a": read, "internal/p key.b": read,
	}
	if fmt.Sprint(walk) != fmt.Sprint(want) {
		t.Errorf("fields by reader (0 none, 1 tests only, 2 other code):\n%v\nwant:\n%v", walk, want)
	}
	if got, want := fieldLine(walk), "9 struct fields under internal/, 6 exported, 0 unread outside the keep-list, 2 read only by tests"; got != want {
		t.Errorf("field line = %q, want %q", got, want)
	}
	keep, _ := parseKeep("internal/p T.Kept paper:Fig14\ninternal/p T.Stale paper:Fig14\ninternal/p T.TestListed test-reference\n")
	called := map[string]bool{}
	for key, who := range walk {
		called[key] = who == read
	}
	never, got := check(keep, called)
	wantProblems := []string{
		"stale: internal/p T.Stale is listed but is called or read now, or is gone",
		"unlisted: internal/p T.TestOnly is never called or read outside tests: delete it, or list it with a reason",
		"unlisted: internal/p T.WriteOnly is never called or read outside tests: delete it, or list it with a reason",
	}
	if never != 4 || strings.Join(got, "\n") != strings.Join(wantProblems, "\n") {
		t.Errorf("unread = %d, want 4; problems:\n%s\nwant:\n%s", never, strings.Join(got, "\n"), strings.Join(wantProblems, "\n"))
	}
}

// pkgIndex is what go/parser says a package directory declares, in the
// spellings the keep-list and the pinned list use.
type pkgIndex struct {
	funcs   map[string]bool            // as covdata prints them: Encode, MAC.String, *Handler.Cached
	top     map[string]bool            // package-level funcs, types, consts, vars
	members map[string]map[string]bool // type -> its methods and fields
}

// recvBase unwraps a receiver type to its name: *T, T, *T[K], T[K, V].
func recvBase(e ast.Expr) (name string, star, generic bool) {
	if s, ok := e.(*ast.StarExpr); ok {
		e, star = s.X, true
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e, generic = x.X, true
	case *ast.IndexListExpr:
		e, generic = x.X, true
	}
	return e.(*ast.Ident).Name, star, generic
}

func indexDir(t *testing.T, dir string) *pkgIndex {
	t.Helper()
	ix := &pkgIndex{funcs: map[string]bool{}, top: map[string]bool{}, members: map[string]map[string]bool{}}
	member := func(typ, name string) {
		if ix.members[typ] == nil {
			ix.members[typ] = map[string]bool{}
		}
		ix.members[typ][name] = true
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join(root, dir), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						ix.funcs[d.Name.Name], ix.top[d.Name.Name] = true, true
						continue
					}
					typ, star, generic := recvBase(d.Recv.List[0].Type)
					member(typ, d.Name.Name)
					switch {
					case generic: // covdata drops a generic receiver
						ix.funcs[d.Name.Name] = true
					case star:
						ix.funcs["*"+typ+"."+d.Name.Name] = true
					default:
						ix.funcs[typ+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.ValueSpec:
							for _, n := range s.Names {
								ix.top[n.Name] = true
							}
						case *ast.TypeSpec:
							ix.top[s.Name.Name] = true
							var fields *ast.FieldList
							switch tt := s.Type.(type) {
							case *ast.StructType:
								fields = tt.Fields
							case *ast.InterfaceType:
								fields = tt.Methods
							}
							if fields != nil {
								for _, fl := range fields.List {
									for _, n := range fl.Names {
										member(s.Name.Name, n.Name)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return ix
}

// moduleSources walks every non-test file of the module (go/parser only):
// which module packages each directory imports, and which string literals
// internal/ holds (metric ids and CPU names are pinned as strings).
func moduleSources(t *testing.T) (imports map[string][]string, literals map[string]bool) {
	t.Helper()
	literals = map[string]bool{}
	imports = map[string][]string{} // directory -> module packages it imports
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		from := strings.TrimPrefix(filepath.Dir(path), root+"/")
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); strings.HasPrefix(p, "repro/") {
				imports[from] = append(imports[from], strings.TrimPrefix(p, "repro/"))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if l, ok := n.(*ast.BasicLit); ok && l.Kind == token.STRING && strings.HasPrefix(path, root+"/internal/") {
				s, _ := strconv.Unquote(l.Value)
				literals[s] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return imports, literals
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
	imports, _ := moduleSources(t)
	linked := linkedFrom(imports, "examples/dnsserver")
	if !linked["internal/dns"] {
		t.Fatal("examples/dnsserver does not import internal/dns: the import walk is broken")
	}
	if linked["internal/storage"] {
		t.Error("examples/dnsserver imports internal/storage, directly or through another package")
	}
}

// TestOneTimerOrder: no package under internal/, tests included, imports
// container/heap. Scheduled work has one order, the kernel's event queue
// (an lwt Sleep is one kernel event), so a private priority queue would
// bring a second tie rule with it.
func TestOneTimerOrder(t *testing.T) {
	err := filepath.WalkDir(root+"/internal", func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p == "container/heap" {
				t.Errorf("%s imports container/heap; schedule on the kernel instead", strings.TrimPrefix(path, root+"/"))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// retiredIDs are registry ids the frozen benchmark/README.md still pins
// that the program no longer registers, each with the reason; layers.go sums
// a missing counter as 0. An id listed here must appear in no source under
// internal/.
var retiredIDs = map[string]string{
	"sim_cluster_late_deliveries_total": "exact W-wide epochs deliver every cross-shard send on time; a late one panics",
}

// TestKeepListAndPinnedSurface walks the sources (go/parser only): every
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
	index := map[string]*pkgIndex{}
	dir := func(d string) *pkgIndex {
		if index[d] == nil {
			index[d] = indexDir(t, d)
		}
		return index[d]
	}
	for key := range keep {
		d, fn, _ := strings.Cut(key, " ")
		if !strings.HasPrefix(d, "internal/") {
			t.Errorf("keep-list: %s: not a package under internal/", key)
			continue
		}
		typ, field, _ := strings.Cut(fn, ".")
		if ix := dir(d); !ix.funcs[fn] && !ix.members[typ][field] {
			t.Errorf("keep-list: %s: no such function or field in %s", key, d)
		}
	}

	imports, literals := moduleSources(t)

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
	internal, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []string
	for d := range imports {
		if !strings.HasPrefix(d, "internal/") {
			entries = append(entries, d)
		}
	}
	linked := linkedFrom(imports, entries...)
	for _, e := range internal {
		if d := "internal/" + e.Name(); !linked[d] {
			t.Errorf("%s: no entry point imports it, so no cover build can measure it: give it one, or delete it", d)
		}
	}
	anyMember := func(name string) bool {
		for _, e := range internal {
			for _, m := range dir("internal/" + e.Name()).members {
				if m[name] {
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
					if !ix.members[cur][mm[3]] {
						t.Errorf("pinned: %s.%s has no method or field %s", pkg, cur, mm[3])
					}
				case cm != nil:
					cur = cm[1]
					for _, f := range strings.Split(cm[2], ", ") {
						if !ix.members[cur][f] {
							t.Errorf("pinned: %s.%s has no field %s", pkg, cur, f)
						}
					}
				case strings.HasPrefix(tk, "."):
					if !ix.members[cur][tk[1:]] {
						t.Errorf("pinned: %s.%s has no method or field %s", pkg, cur, tk[1:])
					}
				case !ix.top[tk]:
					t.Errorf("pinned: package %s declares no %s", pkg, tk)
				}
			}
		}
	}
	if checked < 150 {
		t.Errorf("only %d pinned names checked: the \"Pinned API surface\" section no longer parses", checked)
	}
}
