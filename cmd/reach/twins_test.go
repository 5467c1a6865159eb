package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// twinExceptions are the fields a non-test statement under internal/ may
// bump beside a registry counter, each with why it stays.
var twinExceptions = map[string]string{
	"internal/blkif Blkif.Reads":     "the frozen benchmark/sut.go reads it",
	"internal/blkif Blkif.Writes":    "the frozen benchmark/sut.go reads it",
	"internal/blkif Blkif.Merged":    "the frozen benchmark/sut.go reads it",
	"internal/blkif Blkif.Indirect":  "the frozen benchmark/sut.go reads it",
	"internal/hypervisor Port.Sends": "a per-port count that feeds per-domain accounting; the registry counter is host-wide",
}

// TestOneHomePerCount: every count has one home, the registry. A non-test
// statement under internal/ that increments a struct field, exported or not
// (++ or +=), right before or after a statement that calls Inc or Add on an
// *obs.Counter keeps a second copy of the counter's event, so it fails,
// naming the field, unless the field is one of twinExceptions. Only the
// adjacent statement counts: a field bumped elsewhere in a function that
// also counts something is a different event. A listed field that is no
// longer bumped beside a counter fails as stale.
func TestOneHomePerCount(t *testing.T) {
	for _, p := range countTwins(loadTree(t), twinExceptions) {
		t.Error(p)
	}
}

// TestTwinCheck runs the check on the fixture module under
// testdata/twinmod: an exported and an unexported field bumped beside a
// counter fail, each by name, a listed one passes, and a listed field bumped
// apart from any counter fails as stale.
func TestTwinCheck(t *testing.T) {
	got := countTwins(loadFixture(t, "testdata/twinmod"), map[string]string{
		"internal/p Stats.Listed": "a count the fixture keeps",
		"internal/p Stats.Apart":  "a count no longer bumped beside a counter",
	})
	want := []string{
		"testdata/twinmod/internal/p/p.go:16:2: internal/p Stats.Sent is bumped beside a registry counter: read the counter instead, and delete the field",
		"testdata/twinmod/internal/p/p.go:19:2: internal/p Stats.recvd is bumped beside a registry counter: read the counter instead, and delete the field",
		"internal/p Stats.Apart is listed as an exception but is no longer bumped beside a registry counter: drop it from twinExceptions",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// countTwins reports, sorted, each field a non-test statement under m's
// internal/ bumps beside a registry counter, unless exceptions lists it, then
// each listed field that is not such a field.
func countTwins(m *module, exceptions map[string]string) []string {
	counter := "*" + m.path + "/internal/obs.Counter"
	var twins, stale []string
	found := map[string]bool{}
	for _, f := range m.files {
		if f.test || f.info == nil || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		info := f.info
		ast.Inspect(f.File, func(n ast.Node) bool {
			var list []ast.Stmt
			switch n := n.(type) {
			case *ast.BlockStmt:
				list = n.List
			case *ast.CaseClause:
				list = n.Body
			case *ast.CommClause:
				list = n.Body
			}
			beside := func(i int) bool { return i >= 0 && i < len(list) && countsOn(info, list[i], counter) }
			for i, s := range list {
				field := bumpedField(m, info, s)
				if field == "" || !beside(i-1) && !beside(i+1) {
					continue
				}
				found[field] = true
				if exceptions[field] == "" {
					twins = append(twins, fmt.Sprintf("%s: %s is bumped beside a registry counter: read the counter instead, and delete the field",
						m.fset.Position(s.Pos()), field))
				}
			}
			return true
		})
	}
	for field := range exceptions {
		if !found[field] {
			stale = append(stale, field+" is listed as an exception but is no longer bumped beside a registry counter: drop it from twinExceptions")
		}
	}
	sort.Strings(twins)
	sort.Strings(stale)
	return append(twins, stale...)
}

// bumpedField names the struct field s increments with ++ or +=, as
// "dir T.F", or returns "".
func bumpedField(m *module, info *types.Info, s ast.Stmt) string {
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
	if sl == nil || sl.Kind() != types.FieldVal {
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
	return m.dirOf(sl.Obj().Pkg()) + " " + named.Obj().Name() + "." + sl.Obj().Name()
}

// countsOn reports whether s is a call of Inc or Add on a value of type
// counter.
func countsOn(info *types.Info, s ast.Stmt, counter string) bool {
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
	return types.TypeString(info.Types[sel.X].Type, nil) == counter
}
