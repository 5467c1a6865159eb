package main

import (
	"go/ast"
	"go/token"
	"go/types"
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
// from their non-test files by fields.go's loadModule.
func TestOneHomePerCount(t *testing.T) {
	m, err := loadModule(root, false)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for key, files := range m.pkgs {
		if !strings.HasPrefix(key, "internal/") {
			continue
		}
		info, err := m.check(key)
		if err != nil {
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
								m.fset.Position(s.Pos()), field)
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
	dir, _, _ := strings.Cut(strings.TrimPrefix(sl.Obj().Pkg().Path(), "repro/"), " ") // "dir pkg" under its own check
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
