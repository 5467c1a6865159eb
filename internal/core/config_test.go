package core

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/ethernet"
	"repro/internal/netback"
	"repro/internal/obs"
)

type sinkEndpoint struct {
	mac ethernet.MAC
	got int
}

func (e *sinkEndpoint) MAC() ethernet.MAC { return e.mac }
func (e *sinkEndpoint) Deliver(f *bufpool.Buf) {
	f.Release()
	e.got++
}

// TestConfigReachesEveryHost: the impairment and the registry a platform is
// built with apply to its first host and to every host racked afterwards,
// and to no platform built from another value.
func TestConfigReachesEveryHost(t *testing.T) {
	reg := obs.NewRegistry()
	impaired := Config{Faults: netback.Faults{Drop: 1}, Metrics: reg}.NewPlatform(1)
	impaired.AddHost("h1")
	clean := NewPlatform(1)
	clean.AddHost("h1")

	send := func(pl *Platform) (delivered, dropped int) {
		for _, s := range pl.Sites() {
			dst := &sinkEndpoint{mac: ethernet.MAC{2}}
			s.Bridge.Attach(dst, s.Bridge.K)
			frame := make([]byte, 64)
			copy(frame, dst.mac[:])
			s.Bridge.TransmitBytes(ethernet.MAC{1}, frame)
			if _, err := pl.RunFor(1e6); err != nil {
				t.Fatal(err)
			}
			delivered += dst.got
		}
		return delivered, int(pl.K.Metrics().Counter("bridge_faults_total", obs.L("kind", "drop")).Value())
	}
	if got, dropped := send(impaired); got != 0 || dropped != 2 {
		t.Errorf("Drop=1 platform: %d frames delivered, %d dropped over 2 hosts; want 0 and 2", got, dropped)
	}
	if got, dropped := send(clean); got != 2 || dropped != 0 {
		t.Errorf("zero-configuration platform: %d frames delivered, %d dropped over 2 hosts; want 2 and 0", got, dropped)
	}
	if n := reg.Counter("bridge_faults_total", obs.L("kind", "drop")).Value(); n != 2 {
		t.Errorf("the platform's own registry counted %d drops, want 2", n)
	}
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
	root := filepath.Join("..", "..")
	guarded := map[string]bool{}
	for _, p := range []string{"sim", "netback", "core", "bench", "experiments"} {
		guarded[filepath.Join(root, "internal", p)] = true
	}
	fset := token.NewFileSet()
	render := func(n ast.Node) string {
		var b bytes.Buffer
		printer.Fprint(&b, fset, n)
		return b.String()
	}
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join(root, "benchmark")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fn := call.Fun.(type) {
			case *ast.SelectorExpr:
				if x, ok := fn.X.(*ast.Ident); ok && x.Name == "core" && fn.Sel.Name == "SetDefaultSharding" {
					t.Errorf("%s: calls core.SetDefaultSharding; build a core.Config instead", fset.Position(call.Pos()))
				}
			case *ast.Ident:
				if f.Name.Name == "core" && fn.Name == "SetDefaultSharding" {
					t.Errorf("%s: calls SetDefaultSharding", fset.Position(call.Pos()))
				}
			}
			return true
		})
		if !guarded[filepath.Dir(path)] {
			return nil
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
				if f.Name.Name == "core" && len(vs.Names) == 1 && vs.Names[0].Name == "shim" {
					if !ambient.MatchString(made) {
						t.Errorf("%s: the shim variable no longer looks like sharding state (%s); update this test", fset.Position(vs.Pos()), made)
					}
					continue
				}
				if m := ambient.FindString(made); m != "" {
					t.Errorf("%s: package-level variable %smatches %q: configuration is a core.Config value, not package state",
						fset.Position(vs.Pos()), made, m)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d source files from %s; the test is not looking at the tree", files, root)
	}
}
