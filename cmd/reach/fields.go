package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// What reads a struct field: nothing, only _test.go files, or other code.
const (
	unread = iota
	testRead
	read
)

// module is the module at root, parsed and type-checked once: every source
// rule reads it. Its packages import each other from their non-test files,
// each checked once, and the standard library from source.
type module struct {
	path     string
	fset     *token.FileSet
	std      types.Importer
	files    []file                    // every .go file, in walk order
	lib      map[string][]*ast.File    // dir -> its non-test files
	imported map[string]*types.Package // import path -> lib, checked once
}

// file is one .go file of the module.
type file struct {
	*ast.File
	dir  string      // its directory, relative to the module root
	test bool        // a _test.go file
	info *types.Info // what its package's check recorded; nil when the build constraints leave the file out
}

func (m *module) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, m.path+"/")
	if !ok {
		return m.std.Import(path)
	}
	if m.imported[path] == nil { // a type error here is reported by the package's own check
		m.imported[path], _ = (&types.Config{Importer: m}).Check(path, m.fset, m.lib[dir], nil)
	}
	return m.imported[path], nil
}

// dirOf is the directory of a package of the module, imported
// ("repro/internal/sim") or checked with its tests ("internal/sim sim"), and
// "" for a package from outside it.
func (m *module) dirOf(p *types.Package) string {
	if dir, ok := strings.CutPrefix(p.Path(), m.path+"/"); ok {
		return dir
	}
	if dir, _, ok := strings.Cut(p.Path(), " "); ok {
		return dir
	}
	return ""
}

// loadModule parses every .go file of the module at root, testdata and dot
// directories skipped, and type-checks each package with its _test.go files
// under the path "dir package". A file the build constraints leave out
// (//go:build race) is parsed but not checked.
func loadModule(root string) (*module, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	_, path, _ := strings.Cut(string(mod), "module ")
	path, _, _ = strings.Cut(path, "\n")
	fset := token.NewFileSet()
	m := &module{
		path:     strings.TrimSpace(path),
		fset:     fset,
		std:      importer.ForCompiler(fset, "source", nil),
		lib:      map[string][]*ast.File{},
		imported: map[string]*types.Package{},
	}
	pkgs := map[string][]int{} // "dir package" -> its files, as indices into m.files
	err = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != root && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
			return filepath.SkipDir
		}
		if e.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		fl := file{File: f, dir: filepath.ToSlash(dir), test: strings.HasSuffix(path, "_test.go")}
		if ok, _ := build.Default.MatchFile(filepath.Dir(path), e.Name()); ok {
			pkgs[fl.dir+" "+f.Name.Name] = append(pkgs[fl.dir+" "+f.Name.Name], len(m.files))
			if !fl.test {
				m.lib[fl.dir] = append(m.lib[fl.dir], f)
			}
		}
		m.files = append(m.files, fl)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for key, idx := range pkgs {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		files := make([]*ast.File, len(idx))
		for i, j := range idx {
			files[i] = m.files[j].File
		}
		if _, err := (&types.Config{Importer: m}).Check(key, fset, files, info); err != nil {
			return nil, err
		}
		for _, j := range idx {
			m.files[j].info = info
		}
	}
	return m, nil
}

// walkFields reports each struct field a non-test file under m's internal/
// declares — "dir T.F", or "dir file.go:line F" in an unnamed struct — by
// what reads it, tests included. A read is a selector anywhere but as the
// target of an assignment or inc/dec (x.f[k] = v writes f when f is a map or
// array), an == or != of the struct that holds it, that struct as a map key,
// or a struct tag. Embedded fields are not counted.
func walkFields(m *module) map[string]int {
	fset := m.fset
	names, reads := map[token.Position]string{}, map[token.Position]int{}
	for _, f := range m.files {
		if f.info == nil {
			continue
		}
		use := func(v *types.Var) {
			p := fset.Position(v.Origin().Pos())
			if f.test {
				reads[p] = max(reads[p], testRead)
			} else {
				reads[p] = read
			}
		}
		declare := func(id *ast.Ident, typ string, tagged bool) {
			names[fset.Position(id.Pos())] = f.dir + " " + typ + id.Name
			if tagged {
				reads[fset.Position(id.Pos())] = read
			}
		}
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			declare = nil
		}
		walkFile(fset, f.File, f.info, use, declare)
	}
	fields := map[string]int{}
	for p, name := range names {
		fields[name] = reads[p]
	}
	return fields
}

// walkFile calls use for every field f reads and, unless it is nil, declare
// for every field f declares, with the name of its struct type.
func walkFile(fset *token.FileSet, f *ast.File, info *types.Info, use func(*types.Var), declare func(id *ast.Ident, typ string, tagged bool)) {
	var whole func(t types.Type) // every field an == of t, or t as a map key, reads
	whole = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				use(u.Field(i))
				whole(u.Field(i).Type())
			}
		case *types.Array:
			whole(u.Elem())
		}
	}
	written, typeName := map[ast.Expr]bool{}, map[*ast.StructType]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		if m, ok := underlying(info, n).(*types.Map); ok {
			whole(m.Key())
		}
		switch n := n.(type) {
		case *ast.AssignStmt: // visited before the selectors it holds
			for _, l := range n.Lhs {
				written[target(info, l)] = true
			}
		case *ast.IncDecStmt:
			written[target(info, n.X)] = true
		case *ast.SelectorExpr:
			if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !written[n] {
				use(s.Obj().(*types.Var))
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				whole(info.Types[n.X].Type)
			}
		case *ast.TypeSpec: // visited before its struct
			if st, ok := n.Type.(*ast.StructType); ok {
				typeName[st] = n.Name.Name + "."
			}
		case *ast.StructType:
			typ, named := typeName[n]
			if p := fset.Position(n.Pos()); !named {
				typ = fmt.Sprintf("%s:%d ", filepath.Base(p.Filename), p.Line)
			}
			for _, fl := range n.Fields.List {
				for _, id := range fl.Names {
					if declare != nil {
						declare(id, typ, fl.Tag != nil)
					}
				}
			}
		}
		return true
	})
}

// target is the expression an assignment to e writes: e, or the map or array
// e indexes.
func target(info *types.Info, e ast.Expr) ast.Expr {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		switch underlying(info, ix.X).(type) {
		case *types.Map, *types.Array:
			return target(info, ix.X)
		}
	}
	return e
}

// underlying is the underlying type of n, if n is a typed expression.
func underlying(info *types.Info, n ast.Node) types.Type {
	if e, ok := n.(ast.Expr); ok && info.Types[e].Type != nil {
		return info.Types[e].Type.Underlying()
	}
	return nil
}
