package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

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
	const root = ".." // internal/
	fset := token.NewFileSet()
	var spawns []string
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		inSim := filepath.Dir(path) == "../sim"
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p == "sync" || strings.HasPrefix(p, "sync/") {
				t.Errorf("%s: imports %s", fset.Position(im.Pos()), p)
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pos := fset.Position(g.Pos())
					spawns = append(spawns, filepath.ToSlash(pos.Filename)+" "+fn.Name.Name)
				}
				if c, ok := n.(*ast.CallExpr); ok && !inSim && atNow(c) {
					t.Errorf("%s: %s defers to the current instant by hand; arm a sim.Flush", fset.Position(c.Pos()), fn.Name.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 60 {
		t.Fatalf("walked only %d source files under %s; the test is not looking at the tree", files, root)
	}
	if want := "../sim/sim.go Spawn"; len(spawns) != 1 || spawns[0] != want {
		t.Errorf("go statements under internal/: %q, want only %q", spawns, want)
	}
}

// atNow reports whether c is an At or AtArg call whose time is a Now() call.
func atNow(c *ast.CallExpr) bool {
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "At" && sel.Sel.Name != "AtArg") || len(c.Args) == 0 {
		return false
	}
	t, ok := c.Args[0].(*ast.CallExpr)
	if !ok || len(t.Args) != 0 {
		return false
	}
	now, ok := t.Fun.(*ast.SelectorExpr)
	return ok && now.Sel.Name == "Now"
}
