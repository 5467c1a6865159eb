package main

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestOneTimerOrder: no package under internal/, tests included, imports
// container/heap. Scheduled work has one order, the kernel's event queue
// (an lwt Sleep is one kernel event), so a private priority queue would
// bring a second tie rule with it.
func TestOneTimerOrder(t *testing.T) {
	m := loadTree(t)
	for _, f := range m.files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p == "container/heap" {
				t.Errorf("%s: imports container/heap; schedule on the kernel instead", m.fset.Position(im.Pos()))
			}
		}
	}
}

// TestSingleThreadDesign walks the source: a platform runs on one thread of
// control — a proc is a goroutine only so it can block mid-function, and the
// kernel hands control to exactly one of them at a time — so nothing under
// internal/ needs a lock or an atomic, and the one go statement is the proc
// spawn in sim.go. A second one, or an import of sync, is how a second thread
// would come back; determinism would then again rest on the race detector
// finding every shared write.
//
// The same walk keeps same-instant deferral in one place: outside sim, no
// At or AtArg call takes a Now() call as its time. A burst that publishes
// once at the end of an instant arms a Flush, which owns the generation
// check a hand-rolled event would have to repeat.
func TestSingleThreadDesign(t *testing.T) {
	m := loadTree(t)
	var spawns []string
	files := 0
	for _, f := range m.files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		files++
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p == "sync" || strings.HasPrefix(p, "sync/") {
				t.Errorf("%s: imports %s", m.fset.Position(im.Pos()), p)
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					spawns = append(spawns, f.dir+" "+fn.Name.Name)
				}
				if c, ok := n.(*ast.CallExpr); ok && f.dir != "internal/sim" && atNow(m, f.info, c) {
					t.Errorf("%s: %s defers to the current instant by hand; arm a sim.Flush", m.fset.Position(c.Pos()), fn.Name.Name)
				}
				return true
			})
		}
	}
	if files < 60 {
		t.Fatalf("read only %d source files under internal/; the test is not looking at the tree", files)
	}
	if want := "internal/sim Spawn"; len(spawns) != 1 || spawns[0] != want {
		t.Errorf("go statements under internal/: %q, want only %q", spawns, want)
	}
}

// bareKernels are the files outside internal/sim and internal/core that
// may build a kernel of their own with sim.NewKernelObs, each with its
// reason.
var bareKernels = map[string]string{
	"internal/bench/net.go": "fig8 wires two bare tcp.Stacks together until it runs its pairs on the platform (ROADMAP item 5 (c))",
}

// TestOneWayToBuildASimulation walks the source: an experiment builds its
// simulation through core.Config.NewPlatform, so outside internal/sim,
// internal/core and tests nothing calls sim.NewKernelObs but the files of
// bareKernels. A bare kernel takes the run's trace and registry and
// ignores everything else a core.Config carries. An exception whose file no
// longer calls it is stale.
func TestOneWayToBuildASimulation(t *testing.T) {
	m := loadTree(t)
	want := m.path + "/internal/sim.NewKernelObs"
	used := map[string]bool{}
	for _, f := range m.files {
		if f.test || f.info == nil || f.dir == "internal/sim" || f.dir == "internal/core" {
			continue
		}
		name := f.dir + "/" + filepath.Base(m.fset.Position(f.Package).Filename)
		ast.Inspect(f.File, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := callee(f.info, c); fn != nil && fn.FullName() == want {
				if _, ok := bareKernels[name]; ok {
					used[name] = true
				} else {
					t.Errorf("%s: builds a bare kernel with sim.NewKernelObs; deploy on a platform from core.Config.NewPlatform", m.fset.Position(c.Pos()))
				}
			}
			return true
		})
	}
	for name, why := range bareKernels {
		if !used[name] {
			t.Errorf("bareKernels lists %s (%s), which no longer calls sim.NewKernelObs: remove the exception", name, why)
		}
	}
}

// callee is the function or method c calls by name, or nil.
func callee(info *types.Info, c *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(c.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// atNow reports whether c, outside package sim, calls (*sim.Kernel).At or
// AtArg with a call of a Now method of sim as its time.
func atNow(m *module, info *types.Info, c *ast.CallExpr) bool {
	if info == nil || len(c.Args) == 0 {
		return false
	}
	sim := m.path + "/internal/sim"
	if at := callee(info, c); at == nil || at.FullName() != "(*"+sim+".Kernel).At" && at.FullName() != "(*"+sim+".Kernel).AtArg" {
		return false
	}
	t, ok := ast.Unparen(c.Args[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	now := callee(info, t)
	return now != nil && now.Name() == "Now" && now.Pkg().Path() == sim
}

// ambient matches what a package-level variable must not be made of in the
// packages a run's configuration passes through: a tracer, a registry, an
// impairment model, a Config, or sharding by any name.
var ambient = regexp.MustCompile(`Tracer|Registry|Faults|\bConfig\b|(?i:pcpu|parallel|shard)`)

// TestNoAmbientConfiguration walks the source: configuration reaches a
// platform as a value (Config), so outside the frozen benchmark/ nothing may
// call the SetDefaultSharding shim, and sim, netback, core, bench and
// experiments may hold no package-level tracer, registry, impairment or
// sharding state — the shim's own variable excepted.
func TestNoAmbientConfiguration(t *testing.T) {
	m := loadTree(t)
	guarded := map[string]bool{}
	for _, p := range []string{"sim", "netback", "core", "bench", "experiments"} {
		guarded["internal/"+p] = true
	}
	render := func(n ast.Node) string {
		var b bytes.Buffer
		printer.Fprint(&b, m.fset, n)
		return b.String()
	}
	files := 0
	for _, f := range m.files {
		if f.test || f.dir == "benchmark" || strings.HasPrefix(f.dir, "benchmark/") {
			continue
		}
		files++
		ast.Inspect(f.File, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && f.info != nil {
				if fn := callee(f.info, c); fn != nil && fn.Name() == "SetDefaultSharding" && m.dirOf(fn.Pkg()) == "internal/core" {
					t.Errorf("%s: calls core.SetDefaultSharding; build a core.Config instead", m.fset.Position(c.Pos()))
				}
			}
			return true
		})
		if !guarded[f.dir] {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				// What the variable is made of: its names, its declared
				// type, and the type or constructor of each initialiser.
				made := ""
				for _, n := range vs.Names {
					made += n.Name + " "
				}
				if vs.Type != nil {
					made += render(vs.Type) + " "
				}
				for _, v := range vs.Values {
					if u, ok := v.(*ast.UnaryExpr); ok {
						v = u.X
					}
					switch v := v.(type) {
					case *ast.CompositeLit:
						if v.Type != nil {
							made += render(v.Type) + " "
						}
					case *ast.CallExpr:
						made += render(v.Fun) + " "
					}
				}
				if f.dir == "internal/core" && len(vs.Names) == 1 && vs.Names[0].Name == "shim" {
					if !ambient.MatchString(made) {
						t.Errorf("%s: the shim variable no longer looks like sharding state (%s); update this test", m.fset.Position(vs.Pos()), made)
					}
					continue
				}
				if hit := ambient.FindString(made); hit != "" {
					t.Errorf("%s: package-level variable %smatches %q: configuration is a core.Config value, not package state",
						m.fset.Position(vs.Pos()), made, hit)
				}
			}
		}
	}
	if files < 50 {
		t.Fatalf("read only %d source files outside benchmark/; the test is not looking at the tree", files)
	}
}
