package repro

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names functions no main reaches that stay on purpose,
// keyed as the scan prints them.
var reachAllowlist = map[string]string{
	"analysis.(*ProfilerModule).Add":    "locked single-event fold, removed with the module mutexes",
	"analysis.(*TopologyModule).Add":    "locked single-event fold, removed with the module mutexes",
	"analysis.(*DensityModule).Add":     "locked single-event fold, removed with the module mutexes",
	"analysis.(*SizesModule).Add":       "locked single-event fold, removed with the module mutexes",
	"analysis.(*TemporalModule).Add":    "locked single-event fold, removed with the module mutexes",
	"analysis.(*CallsiteModule).Add":    "locked single-event fold, removed with the module mutexes",
	"analysis.(*WaitStateModule).Add":   "locked single-event fold, removed with the module mutexes",
	"analysis.(*WindowedModule).Add":    "locked single-event fold, removed with the module mutexes",
	"analysis.(*WaitStateModule).Merge": "locked copy-merge, removed with the module mutexes",
	"trace.decodePack":                  "the reference the decoder differential compares DecodeDispatch with",
	"bench.BenchmarkJSON":               "the benchmark's own test checks BENCHMARK.json against it",
}

// TestEveryFuncIsReachable type-checks every non-test package of the module
// and fails naming each function or method that no main reaches. Roots are
// every main and init, every package-level initializer, every String and
// Error method, and every method that satisfies an interface of an imported
// standard package (the standard library calls those). A method reached
// through an interface reaches every method of the module that implements
// it.
//
// importer.Default loads the standard library's type data by running
// `go list -export`, so the test needs the go toolchain on PATH and a
// writable build cache, and costs about 2 s of one core. CI runs it once,
// in the plain `go test ./...` step; keep the root package out of the
// -count and -cpu repetition steps.
func TestEveryFuncIsReachable(t *testing.T) {
	s := newReachScan()
	if err := s.load("."); err != nil {
		t.Fatal(err)
	}
	var dead []string
	for _, key := range s.unreached() {
		if _, ok := reachAllowlist[key]; !ok {
			dead = append(dead, key)
		}
	}
	for key := range reachAllowlist {
		if !s.declared[key] {
			t.Errorf("allowlist names %s, which is not declared", key)
		}
	}
	if len(dead) > 0 {
		t.Errorf("%d functions no main reaches:\n\t%s", len(dead), strings.Join(dead, "\n\t"))
	}
}

type reachScan struct {
	fset     *token.FileSet
	std      types.Importer
	info     *types.Info
	dirs     map[string]string // import path -> directory
	pkgs     map[string]*types.Package
	files    []*ast.File
	mains    []*types.Package
	bodies   map[*types.Func]*ast.FuncDecl
	declared map[string]bool
	reached  map[*types.Func]bool
	work     []*types.Func
}

func newReachScan() *reachScan {
	return &reachScan{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		info: &types.Info{
			Uses: map[*ast.Ident]types.Object{},
			Defs: map[*ast.Ident]types.Object{},
		},
		dirs:     map[string]string{},
		pkgs:     map[string]*types.Package{},
		bodies:   map[*types.Func]*ast.FuncDecl{},
		declared: map[string]bool{},
		reached:  map[*types.Func]bool{},
	}
}

// load type-checks every package under root, the module's directory.
func (s *reachScan) load(root string) error {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return err
	}
	modPath := strings.Fields(strings.SplitN(string(mod), "\n", 2)[0])[1]
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		imp := modPath
		if path != root {
			imp += "/" + filepath.ToSlash(path)
		}
		s.dirs[imp] = path
		return nil
	})
	if err != nil {
		return err
	}
	for imp := range s.dirs {
		if _, err := s.Import(imp); err != nil {
			return err
		}
	}
	return nil
}

// Import type-checks a module package from source and defers every other
// import to the compiler's export data.
func (s *reachScan) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	s.pkgs[path] = p
	s.files = append(s.files, files...)
	if p.Name() == "main" {
		s.mains = append(s.mains, p)
	}
	return p, nil
}

func (s *reachScan) key(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		ptr := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt, ptr = p.Elem(), "*"
		}
		tn := rt.(interface{ Obj() *types.TypeName }).Obj().Name()
		if ptr != "" {
			name += "(*" + tn + ")."
		} else {
			name += tn + "."
		}
	}
	return name + fn.Name()
}

func (s *reachScan) reach(fn *types.Func) {
	fn = fn.Origin()
	if fn.Pkg() == nil || s.dirs[fn.Pkg().Path()] == "" || s.reached[fn] {
		return
	}
	s.reached[fn] = true
	s.work = append(s.work, fn)
}

// visit marks every function a subtree names as reached.
func (s *reachScan) visit(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := s.info.Uses[id].(*types.Func); ok {
				s.reach(fn)
			}
		}
		return true
	})
}

// unreached walks from the roots and returns the keys of every declared
// function it did not reach, sorted.
func (s *reachScan) unreached() []string {
	var named []*types.Named
	var ifaceMethods []*types.Func
	for _, f := range s.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := s.info.Defs[d.Name].(*types.Func)
				s.bodies[fn] = d
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && fn.Pkg().Name() == "main") {
					s.reach(fn)
				}
				if d.Recv != nil && (d.Name.Name == "String" || d.Name.Name == "Error") {
					s.reach(fn)
				}
				if d.Name.Name != "_" && d.Name.Name != "init" {
					s.declared[s.key(fn)] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, v := range spec.Values {
							s.visit(v)
						}
					case *ast.TypeSpec:
						tn, ok := s.info.Defs[spec.Name].(*types.TypeName)
						if !ok {
							continue
						}
						nt, ok := tn.Type().(*types.Named)
						if !ok {
							continue
						}
						if it, ok := nt.Underlying().(*types.Interface); ok {
							for i := 0; i < it.NumExplicitMethods(); i++ {
								m := it.ExplicitMethod(i)
								s.declared[s.key(m)] = true
								ifaceMethods = append(ifaceMethods, m)
							}
						} else {
							named = append(named, nt)
						}
					}
				}
			}
		}
	}
	// The standard library calls the methods of its own interfaces.
	for _, p := range s.pkgs {
		for _, imp := range p.Imports() {
			if _, ok := s.dirs[imp.Path()]; ok {
				continue
			}
			scope := imp.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				it, ok := tn.Type().Underlying().(*types.Interface)
				if !ok || it.NumMethods() == 0 {
					continue
				}
				for _, nt := range named {
					s.implementations(nt, it, nil)
				}
			}
		}
	}
	for len(s.work) > 0 {
		fn := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		if d := s.bodies[fn]; d != nil {
			if d.Body != nil {
				s.visit(d.Body)
			}
			continue
		}
		// An interface method: reach what implements it.
		it, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, nt := range named {
			s.implementations(nt, it, fn)
		}
	}
	var out []string
	seen := map[string]bool{}
	for fn, d := range s.bodies {
		if d.Name.Name != "_" && d.Name.Name != "init" && !s.reached[fn] {
			seen[s.key(fn)] = true
		}
	}
	for _, m := range ifaceMethods {
		if !s.reached[m] {
			seen[s.key(m)] = true
		}
	}
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// implementations reaches nt's methods that implement it: the one named
// like only when only is set, otherwise all of them.
func (s *reachScan) implementations(nt *types.Named, it *types.Interface, only *types.Func) {
	if nt.TypeParams().Len() > 0 {
		return
	}
	var t types.Type = nt
	if !types.Implements(t, it) {
		t = types.NewPointer(nt)
		if !types.Implements(t, it) {
			return
		}
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		if only != nil && m.Name() != only.Name() {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			s.reach(fn)
		}
	}
}
