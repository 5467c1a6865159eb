package main

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// twinExceptions are the exported fields a non-test statement under
// internal/ may bump beside a registry counter, each with why it stays.
var twinExceptions = map[string]string{
	"internal/blkif Blkif.Reads":     "the frozen benchmark/sut.go reads it",
	"internal/blkif Blkif.Writes":    "the frozen benchmark/sut.go reads it",
	"internal/blkif Blkif.Merged":    "the frozen benchmark/sut.go reads it",
	"internal/blkif Blkif.Indirect":  "the frozen benchmark/sut.go reads it",
	"internal/hypervisor Port.Sends": "a per-port count that feeds per-domain accounting; the registry counter is host-wide",
}

// TestOneHomePerCount: every count has one home, the registry. A non-test
// statement under internal/ that increments an exported struct field (++ or
// +=) right before or after a statement that calls Inc or Add on an
// *obs.Counter keeps a second copy of the counter's event, so it fails,
// naming the field, unless the field is one of twinExceptions. Only the
// adjacent statement counts: a field bumped elsewhere in a function that
// also counts something is a different event. The packages are type-checked
// from their non-test files through fields.go's module importer.
func TestOneHomePerCount(t *testing.T) {
	fset := token.NewFileSet()
	m := &module{
		path:     "repro",
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		lib:      map[string][]*ast.File{},
		imported: map[string]*types.Package{},
	}
	err := filepath.WalkDir(root+"/internal", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if ok, _ := build.Default.MatchFile(filepath.Dir(path), e.Name()); !ok {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		dir := strings.TrimPrefix(filepath.Dir(path), root+"/")
		m.lib[dir] = append(m.lib[dir], f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for dir, files := range m.lib {
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		if _, err := (&types.Config{Importer: m}).Check(dir, fset, files, info); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var list []ast.Stmt
				switch n := n.(type) {
				case *ast.BlockStmt:
					list = n.List
				case *ast.CaseClause:
					list = n.Body
				case *ast.CommClause:
					list = n.Body
				}
				for i, s := range list {
					field := bumpedField(info, s)
					if field == "" {
						continue
					}
					if (i > 0 && countsOnCounter(info, list[i-1])) || (i+1 < len(list) && countsOnCounter(info, list[i+1])) {
						found[field] = true
						if twinExceptions[field] == "" {
							t.Errorf("%s: %s is bumped beside a registry counter: read the counter instead, and delete the field",
								fset.Position(s.Pos()), field)
						}
					}
				}
				return true
			})
		}
	}
	var stale []string
	for field := range twinExceptions {
		if !found[field] {
			stale = append(stale, field)
		}
	}
	sort.Strings(stale)
	for _, field := range stale {
		t.Errorf("%s is listed as an exception but is no longer bumped beside a registry counter: drop it from twinExceptions", field)
	}
}

// bumpedField names the exported struct field s increments with ++ or +=,
// as "dir T.F", or returns "".
func bumpedField(info *types.Info, s ast.Stmt) string {
	var x ast.Expr
	switch s := s.(type) {
	case *ast.IncDecStmt:
		if s.Tok == token.INC {
			x = s.X
		}
	case *ast.AssignStmt:
		if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 {
			x = s.Lhs[0]
		}
	}
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	sl := info.Selections[sel]
	if sl == nil || sl.Kind() != types.FieldVal || !sl.Obj().Exported() {
		return ""
	}
	recv := sl.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	dir := strings.TrimPrefix(sl.Obj().Pkg().Path(), "repro/") // "dir" under its own check
	return dir + " " + named.Obj().Name() + "." + sl.Obj().Name()
}

// countsOnCounter reports whether s is a call of Inc or Add on an
// *obs.Counter.
func countsOnCounter(info *types.Info, s ast.Stmt) bool {
	e, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := e.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Inc" && sel.Sel.Name != "Add") {
		return false
	}
	return types.TypeString(info.Types[sel.X].Type, nil) == "*repro/internal/obs.Counter"
}
