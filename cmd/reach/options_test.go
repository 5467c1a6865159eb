package main

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// oneValueExceptions are the fields under internal/ that every writer in the
// module sets to one value, each with why it stays a field.
var oneValueExceptions = map[string]string{
	"internal/openflow FeaturesReply.NBuffers": "an OpenFlow 1.0 message field the encoder puts on the wire",
	"internal/openflow FeaturesReply.NTables":  "an OpenFlow 1.0 message field the encoder puts on the wire",
	"internal/openflow FeaturesReply.Ports":    "an OpenFlow 1.0 message field the encoder puts on the wire",
	"internal/openflow PacketOut.OutPort":      "an OpenFlow 1.0 message field the encoder puts on the wire",
	"internal/openflow PacketOut.Data":         "an OpenFlow 1.0 message field the encoder puts on the wire",
	"internal/tcp Params.MSS":                  "the frozen benchmark/sut.go reads tcp.DefaultParams().MSS",
}

// TestOptionsTakeTwoValues: an option is something that varies. Every
// field, exported or not, of a named struct a non-test file under internal/
// declares must take at least two values across the whole module, tests,
// examples, cmd/ and benchmark/ included; a field every writer sets to one
// constant fails, naming the field and the value, unless it is one of
// oneValueExceptions. A listed field that takes two values now fails as
// stale.
func TestOptionsTakeTwoValues(t *testing.T) {
	problems, err := oneValueFields(root, oneValueExceptions)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestOneValueCheck runs the check on the fixture module under
// testdata/optmod: a field one constructor sets to one constant, an
// unexported one it does, a field always left out, one set to zero once and
// left out once, and a listed field gone from the source fail, each by name;
// a listed one-value field, a field a test sets to a second value and every
// kind of write that is not a constant pass.
func TestOneValueCheck(t *testing.T) {
	got, err := oneValueFields("testdata/optmod", map[string]string{
		"internal/dns Server.Gone": "a field that is no longer declared",
		"internal/dns Server.Wire": "a field the encoder puts on the wire",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/dns Limits.Zero takes only the value 0: make it a constant, or list it in oneValueExceptions with a reason",
		"internal/dns Server.Kind takes only the value 1: make it a constant, or list it in oneValueExceptions with a reason",
		"internal/dns Server.Unset takes only the value 0: make it a constant, or list it in oneValueExceptions with a reason",
		"internal/dns Server.cost takes only the value 3: make it a constant, or list it in oneValueExceptions with a reason",
		"internal/dns Server.Gone is listed in oneValueExceptions but takes two values now, or is gone: drop it from the list",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// values are the values the writes of one field give it: each constant by
// its exact spelling (the zero value of a type without constants is
// "zero value"), and whether some write is not a constant.
type values struct {
	consts map[string]string // exact spelling -> as printed
	varies bool
}

// oneValueFields type-checks every package of the module at root, tests
// included, and reports each field of a named struct a non-test file under
// root/internal declares whose writes all give it one constant, unless
// exceptions lists it, and each listed field that is not such a field.
//
// A composite-literal element gives its field its constant value; a literal
// that leaves a field out gives it the zero value; x.F = v gives F the
// constant value of v. Every other write varies the field: a value that is
// not a constant, op= and ++/--, &x.F (also taken implicitly by a call of a
// pointer method on x.F), a range assignment, and a write through x.F
// (x.F.G = v, x.F[i] = v, x.F[a:b], &x.F.G).
func oneValueFields(root string, exceptions map[string]string) ([]string, error) {
	m, err := loadModule(root, true)
	if err != nil {
		return nil, err
	}
	names := map[token.Pos]string{}
	for dir, files := range m.lib {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						for _, fl := range st.Fields.List {
							for _, id := range fl.Names {
								names[id.Pos()] = dir + " " + ts.Name.Name + "." + id.Name
							}
						}
					}
				}
				return true
			})
		}
	}
	writes := map[token.Pos]*values{}
	for key, files := range m.pkgs {
		info, err := m.check(key)
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			walkWrites(info, f, func(v *types.Var, e ast.Expr) {
				w := writes[v.Origin().Pos()]
				if w == nil {
					w = &values{consts: map[string]string{}}
					writes[v.Origin().Pos()] = w
				}
				exact, shown, ok := constantOf(info, v, e)
				if !ok {
					w.varies = true
					return
				}
				w.consts[exact] = shown
			})
		}
	}
	var one []string
	found := map[string]bool{}
	for pos, name := range names {
		w := writes[pos]
		if w == nil || w.varies || len(w.consts) != 1 {
			continue
		}
		found[name] = true
		if exceptions[name] == "" {
			for _, shown := range w.consts {
				one = append(one, fmt.Sprintf("%s takes only the value %s: make it a constant, or list it in oneValueExceptions with a reason", name, shown))
			}
		}
	}
	var stale []string
	for name := range exceptions {
		if !found[name] {
			stale = append(stale, name+" is listed in oneValueExceptions but takes two values now, or is gone: drop it from the list")
		}
	}
	sort.Strings(one)
	sort.Strings(stale)
	return append(one, stale...), nil
}

// walkWrites calls write for every write of a struct field in f, with the
// expression the field is set to, or nil when the write is not a plain
// assignment of one value.
func walkWrites(info *types.Info, f *ast.File, write func(v *types.Var, e ast.Expr)) {
	// through varies every field e selects on its way down: x.F.G varies
	// G and F, and x.F[i] varies F.
	var through func(e ast.Expr)
	through = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if v := field(info, e); v != nil {
				write(v, nil)
			}
			through(e.X)
		case *ast.IndexExpr:
			through(e.X)
		case *ast.SliceExpr:
			through(e.X)
		case *ast.StarExpr:
			through(e.X)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			set := map[*types.Var]bool{}
			for i, el := range n.Elts {
				v, e := st.Field(i), el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v, e = info.Uses[kv.Key.(*ast.Ident)].(*types.Var), kv.Value
				}
				set[v] = true
				write(v, e)
			}
			for i := 0; i < st.NumFields(); i++ {
				if !set[st.Field(i)] {
					write(st.Field(i), zero)
				}
			}
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
				if v := field(info, sel); ok && v != nil && n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					write(v, n.Rhs[i])
					through(sel.X)
				} else if n.Tok != token.DEFINE {
					through(l)
				}
			}
		case *ast.IncDecStmt:
			through(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				if n.Key != nil {
					through(n.Key)
				}
				if n.Value != nil {
					through(n.Value)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				through(n.X)
			}
		case *ast.SliceExpr:
			through(n.X)
		case *ast.SelectorExpr: // x.F.M() with M on *T takes &x.F
			if s := info.Selections[n]; s != nil && s.Kind() == types.MethodVal {
				_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrX := info.Types[n.X].Type.Underlying().(*types.Pointer)
				if ptrRecv && !ptrX {
					through(n.X)
				}
			}
		}
		return true
	})
}

// zero stands for the zero value a composite literal gives a field it
// leaves out.
var zero = &ast.Ident{Name: "zero"}

// field is the struct field sel selects, or nil.
func field(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	if sel == nil {
		return nil
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		return s.Obj().(*types.Var)
	}
	return nil
}

// constantOf is the value e gives the field v, exactly and as printed, or
// false when e is nil or not a constant. nil and a left-out field give the
// zero value.
func constantOf(info *types.Info, v *types.Var, e ast.Expr) (exact, shown string, ok bool) {
	if e == nil {
		return "", "", false
	}
	var c constant.Value
	if e == zero || info.Types[e].IsNil() {
		b, ok := v.Type().Underlying().(*types.Basic)
		switch {
		case !ok:
			return "zero value", "zero value", true
		case b.Info()&types.IsBoolean != 0:
			c = constant.MakeBool(false)
		case b.Info()&types.IsString != 0:
			c = constant.MakeString("")
		default:
			c = constant.MakeInt64(0)
		}
	} else if c = info.Types[e].Value; c == nil {
		return "", "", false
	}
	return c.ExactString(), c.String(), true
}
