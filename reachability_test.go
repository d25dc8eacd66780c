package repro

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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
	"bench.BenchmarkJSON":               "the benchmark's own test checks BENCHMARK.json against it",
}

// stateAllowlist names state the field, knob and constant scans find that
// stays on purpose, keyed as the scans print them.
var stateAllowlist = map[string]string{
	"exp.ProfileOptions.AggregatorFaults": "fault injection into the reduction tree; only TestTreeAggregatorKill and TestTreeOptionValidation (tree_test.go) set it, no figure does",
	"vmpi.MapRandom":                      "PAPER.md §1 item 2 names random among VMPI Map's default policies; TestMapRandomCoversAllSlaves pins it",
	"vmpi.MapFixed":                       "PAPER.md §1 item 2 names fixed among VMPI Map's default policies; TestMapFixedBlocks pins it",
	"vmpi.BalanceRandom":                  "PAPER.md §1 item 3 names random among the stream balancing policies; ablation_test.go's balance table runs it",
}

// scanSkip lists the directories whose declarations the state scans do not
// judge: the benchmark's, which change only with the benchmark. Their code
// still counts as a reader and a setter of everything else.
var scanSkip = []string{"cmd/bench", "internal/bench"}

var (
	moduleOnce sync.Once
	moduleScan *reachScan
	moduleErr  error
)

// loadModule type-checks the module once for every scan of this file.
func loadModule(t *testing.T) *reachScan {
	t.Helper()
	moduleOnce.Do(func() {
		moduleScan = newReachScan()
		moduleErr = moduleScan.load(".")
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleScan
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
// `go list -export`, so the tests of this file need the go toolchain on
// PATH and a writable build cache. They share one load, and together cost
// about 3 s of one core. CI runs them once, in the plain `go test ./...`
// step; keep the root package out of the -count and -cpu repetition steps.
func TestEveryFuncIsReachable(t *testing.T) {
	s := loadModule(t)
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

// TestReachableStateIsLive runs the three state scans over the reached code
// of the module: a struct field no one reads, an option no caller sets and
// a constant no one produces each fail the test, unless stateAllowlist
// names it with a reason.
func TestReachableStateIsLive(t *testing.T) {
	s := loadModule(t)
	s.unreached()
	found := s.state(scanSkip)
	if len(stateAllowlist) > 12 {
		t.Errorf("stateAllowlist holds %d entries; the budget is 12", len(stateAllowlist))
	}
	for key, why := range stateAllowlist {
		if !found.declared[key] {
			t.Errorf("stateAllowlist names %s, which is not declared", key)
		}
		if why == "" {
			t.Errorf("stateAllowlist entry %s gives no reason", key)
		}
	}
	for _, kind := range []struct {
		name, what string
		keys       []string
	}{
		{"fields", "struct fields no reached code or test reads", found.fields},
		{"knobs", "option fields only their own defaults set", found.knobs},
		{"constants", "constants reached code only compares against", found.consts},
	} {
		t.Run(kind.name, func(t *testing.T) {
			var dead []string
			for _, key := range kind.keys {
				if _, ok := stateAllowlist[key]; !ok {
					dead = append(dead, key)
				}
			}
			if len(dead) > 0 {
				t.Errorf("%d %s:\n\t%s", len(dead), kind.what, strings.Join(dead, "\n\t"))
			}
		})
	}
}

// TestReachScanFixture runs every scan over a module holding one case of
// each finding and one of each look-alike the scans must not report.
func TestReachScanFixture(t *testing.T) {
	s := newReachScan()
	if err := s.load(filepath.Join("testdata", "reachfixture")); err != nil {
		t.Fatal(err)
	}
	if got := s.unreached(); len(got) > 0 {
		t.Errorf("unreached functions %v, want none", got)
	}
	found := s.state(nil)
	var got []string
	for _, k := range found.fields {
		got = append(got, "field "+k)
	}
	for _, k := range found.knobs {
		got = append(got, "knob "+k)
	}
	for _, k := range found.consts {
		got = append(got, "const "+k)
	}
	want := []string{
		"field main.Widget.logged",
		"field main.Widget.written",
		"knob main.Config.Unset",
		"const main.ModeCompared",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

type reachScan struct {
	fset      *token.FileSet
	std       types.Importer
	info      *types.Info
	tinfo     *types.Info       // the test files'
	dirs      map[string]string // import path -> directory
	pkgs      map[string]*types.Package
	pkgFiles  map[string][]*ast.File
	files     []*ast.File
	testFiles []*ast.File
	mains     []*types.Package
	bodies    map[*types.Func]*ast.FuncDecl
	declared  map[string]bool
	reached   map[*types.Func]bool
	work      []*types.Func
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

func newReachScan() *reachScan {
	return &reachScan{
		fset:     token.NewFileSet(),
		std:      importer.Default(),
		info:     newInfo(),
		tinfo:    newInfo(),
		dirs:     map[string]string{},
		pkgs:     map[string]*types.Package{},
		pkgFiles: map[string][]*ast.File{},
		bodies:   map[*types.Func]*ast.FuncDecl{},
		declared: map[string]bool{},
		reached:  map[*types.Func]bool{},
	}
}

// load type-checks every package under root, the module's directory, and
// then each package's test files against the same *ast.Files.
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
		if rel, _ := filepath.Rel(root, path); rel != "." {
			imp += "/" + filepath.ToSlash(rel)
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
	for imp := range s.dirs {
		if err := s.loadTests(imp); err != nil {
			return err
		}
	}
	return nil
}

func (s *reachScan) parseDir(dir string, tests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
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
	files, err := s.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	s.pkgs[path] = p
	s.pkgFiles[path] = files
	s.files = append(s.files, files...)
	if p.Name() == "main" {
		s.mains = append(s.mains, p)
	}
	return p, nil
}

// loadTests type-checks the test files of one package into tinfo: the
// in-package ones together with the package's own files, so that a field a
// test names is the object, at the same Pos, the package declares; the
// external ones against the package as its importers see it.
func (s *reachScan) loadTests(path string) error {
	files, err := s.parseDir(s.dirs[path], true)
	if err != nil || len(files) == 0 {
		return err
	}
	var in, ext []*ast.File
	for _, f := range files {
		if strings.HasSuffix(f.Name.Name, "_test") {
			ext = append(ext, f)
		} else {
			in = append(in, f)
		}
	}
	under := s.pkgs[path]
	if len(in) > 0 {
		conf := types.Config{Importer: s}
		if under, err = conf.Check(path, s.fset, append(in, s.pkgFiles[path]...), s.tinfo); err != nil {
			return fmt.Errorf("type-check tests of %s: %w", path, err)
		}
	}
	if len(ext) > 0 {
		// The go tool rebuilds every package between an external test and
		// the package it tests against the test variant; this check
		// imports those packages as built without it, so a value passed
		// from one to the other may fail to type-check. Such errors are
		// the scan's own, and every selection is still recorded.
		conf := types.Config{
			Importer: importerFunc(func(p string) (*types.Package, error) {
				if p == path {
					return under, nil
				}
				return s.Import(p)
			}),
			Error: func(error) {},
		}
		conf.Check(path+"_test", s.fset, ext, s.tinfo)
	}
	s.testFiles = append(s.testFiles, files...)
	return nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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

// stateFindings are the state scans' results, each list sorted.
type stateFindings struct {
	fields, knobs, consts []string
	declared              map[string]bool // every key a scan judged
}

// valueKey names one value of a named constant type.
type valueKey struct {
	typ *types.TypeName
	val string
}

// stateScan holds what the walk of reached code and of the tests saw.
type stateScan struct {
	read     map[token.Pos]bool // fields, by the Pos of their declaration
	set      map[token.Pos]bool // knobs set to a non-zero value
	knobs    map[token.Pos]*types.TypeName
	produced map[valueKey]bool
	anyValue map[*types.TypeName]bool // converted from a non-constant
	escaped  map[escapeKey]bool
	compared map[types.Type]bool
}

// state runs the field, knob and constant scans over the code unreached
// found reached, skipping declarations in the skip directories. It must
// run after unreached.
func (s *reachScan) state(skip []string) stateFindings {
	st := &stateScan{
		read:     map[token.Pos]bool{},
		set:      map[token.Pos]bool{},
		knobs:    map[token.Pos]*types.TypeName{},
		produced: map[valueKey]bool{},
		anyValue: map[*types.TypeName]bool{},
		escaped:  map[escapeKey]bool{},
		compared: map[types.Type]bool{},
	}
	judged := func(pos token.Pos) bool {
		dir := filepath.ToSlash(filepath.Dir(s.fset.Position(pos).Filename))
		for _, d := range skip {
			if dir == d || strings.HasSuffix(dir, "/"+d) {
				return false
			}
		}
		return true
	}

	// What is declared: every struct field outside unreached functions,
	// the exported fields of exported option types, and the package-level
	// constants of the module's named types.
	type field struct {
		key string
		pos token.Pos
	}
	var fields, knobs []field
	var consts []*types.Const
	var named []*types.TypeName // struct types
	for _, f := range s.files {
		if !judged(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && !s.reached[s.info.Defs[fd.Name].(*types.Func)] {
				continue
			}
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						c, ok := s.info.Defs[id].(*types.Const)
						if !ok || id.Name == "_" {
							continue
						}
						if nt, ok := c.Type().(*types.Named); ok && s.dirs[nt.Obj().Pkg().Path()] != "" {
							consts = append(consts, c)
						}
					}
				}
			}
			owner := f.Name.Name + "."
			if fd, ok := d.(*ast.FuncDecl); ok {
				owner += fd.Name.Name + "."
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					owner = f.Name.Name + "." + n.Name.Name + "."
					tn, _ := s.info.Defs[n.Name].(*types.TypeName)
					if _, ok := n.Type.(*ast.StructType); ok && tn != nil && !tn.IsAlias() {
						named = append(named, tn)
					}
					name := n.Name.Name
					if tn == nil || !tn.Exported() || tn.Parent() != tn.Pkg().Scope() ||
						!strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
						return true
					}
					if u, ok := tn.Type().Underlying().(*types.Struct); ok {
						for i := 0; i < u.NumFields(); i++ {
							if v := u.Field(i); v.Exported() {
								st.knobs[v.Pos()] = tn
								knobs = append(knobs, field{owner + v.Name(), v.Pos()})
							}
						}
					}
				case *ast.StructType:
					u := s.info.TypeOf(n).(*types.Struct)
					for i := 0; i < u.NumFields(); i++ {
						if v := u.Field(i); v.Name() != "_" {
							fields = append(fields, field{owner + v.Name(), v.Pos()})
						}
					}
				}
				return true
			})
		}
	}

	// Reached code reads, sets and produces; tests only read.
	for fn, d := range s.bodies {
		if !s.reached[fn] || d.Body == nil {
			continue
		}
		w := &stateWalk{st: st, info: s.info, sig: []*types.Signature{fn.Type().(*types.Signature)}}
		if d.Recv == nil && strings.HasPrefix(d.Name.Name, "Default") {
			if res := w.sig[0].Results(); res.Len() == 1 {
				if nt, ok := res.At(0).Type().(*types.Named); ok {
					w.defaults = nt.Obj()
				}
			}
		}
		w.walk(d.Body)
	}
	for _, f := range s.files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				(&stateWalk{st: st, info: s.info}).walk(gd)
			}
		}
	}
	for _, f := range s.testFiles {
		(&stateWalk{st: st, info: s.tinfo, test: true}).walk(f)
	}
	// An embedded field is read when a method promoted through it is
	// reached, or when it comes from outside the module: interfaces are
	// satisfied through it.
	for _, tn := range named {
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			sel := ms.At(i)
			fn := sel.Obj().(*types.Func)
			if len(sel.Index()) > 1 && (s.reached[fn.Origin()] || s.dirs[fn.Pkg().Path()] == "") {
				st.read[tn.Type().Underlying().(*types.Struct).Field(sel.Index()[0]).Pos()] = true
			}
		}
	}
	// A map key is compared as == compares it.
	for _, info := range []*types.Info{s.info, s.tinfo} {
		for _, tv := range info.Types {
			if m, ok := tv.Type.(*types.Map); ok {
				st.compare(m.Key())
			}
		}
	}

	out := stateFindings{declared: map[string]bool{}}
	for _, f := range fields {
		out.declared[f.key] = true
		if !st.read[f.pos] {
			out.fields = append(out.fields, f.key)
		}
	}
	for _, k := range knobs {
		out.declared[k.key] = true
		if !st.set[k.pos] {
			out.knobs = append(out.knobs, k.key)
		}
	}
	for _, c := range consts {
		tn := c.Type().(*types.Named).Obj()
		key := c.Pkg().Name() + "." + c.Name()
		out.declared[key] = true
		if !st.anyValue[tn] && !st.produced[valueKey{tn, c.Val().ExactString()}] {
			out.consts = append(out.consts, key)
		}
	}
	sort.Strings(out.fields)
	sort.Strings(out.knobs)
	sort.Strings(out.consts)
	return out
}

// escape marks every field a value of t holds as read: t was converted to
// an empty interface, where fmt, json or reflect may read any of them. It
// follows a pointer at the top and through exported fields, as json does,
// but not through unexported ones, which fmt prints as an address.
func (st *stateScan) escape(t types.Type, ptr bool) {
	k := escapeKey{t, ptr}
	if st.escaped[k] {
		return
	}
	st.escaped[k] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		if ptr {
			st.escape(u.Elem(), ptr)
		}
	case *types.Slice:
		st.escape(u.Elem(), ptr)
	case *types.Array:
		st.escape(u.Elem(), ptr)
	case *types.Map:
		st.escape(u.Key(), ptr)
		st.escape(u.Elem(), ptr)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			f := u.Field(i)
			st.read[f.Pos()] = true
			st.escape(f.Type(), f.Exported())
		}
	}
}

type escapeKey struct {
	t   types.Type
	ptr bool
}

// compare marks every field == reads on values of t as read.
func (st *stateScan) compare(t types.Type) {
	if st.compared[t] {
		return
	}
	st.compared[t] = true
	switch u := t.Underlying().(type) {
	case *types.Array:
		st.compare(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			st.read[u.Field(i).Pos()] = true
			st.compare(u.Field(i).Type())
		}
	}
}

// stateWalk walks one function body, initializer or test file.
type stateWalk struct {
	st       *stateScan
	info     *types.Info
	test     bool
	sig      []*types.Signature // of the enclosing functions
	defaults *types.TypeName    // the option type a Default* constructor builds
	// guards counts, per field, the enclosing if statements whose
	// condition reads it: a store there is a clamp or a default.
	guards map[token.Pos]int
}

func (w *stateWalk) walk(n ast.Node) { ast.Inspect(n, w.node) }

func (w *stateWalk) node(n ast.Node) bool {
	info := w.info
	switch n := n.(type) {
	case *ast.FuncDecl:
		if n.Body != nil {
			w.sig = append(w.sig, info.Defs[n.Name].Type().(*types.Signature))
			w.walk(n.Body)
			w.sig = w.sig[:len(w.sig)-1]
		}
		return false
	case *ast.FuncLit:
		w.sig = append(w.sig, info.TypeOf(n).(*types.Signature))
		w.walk(n.Body)
		w.sig = w.sig[:len(w.sig)-1]
		return false
	case *ast.IfStmt:
		var guarded []token.Pos
		ast.Inspect(n.Cond, func(c ast.Node) bool {
			if sel, ok := c.(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
				guarded = append(guarded, info.Selections[sel].Obj().Pos())
			}
			return true
		})
		if w.guards == nil {
			w.guards = map[token.Pos]int{}
		}
		for _, p := range guarded {
			w.guards[p]++
		}
		for _, c := range []ast.Node{n.Init, n.Cond, n.Body, n.Else} {
			if c != nil {
				w.walk(c)
			}
		}
		for _, p := range guarded {
			w.guards[p]--
		}
		return false
	case *ast.AssignStmt:
		for i, l := range n.Lhs {
			var r ast.Expr
			if len(n.Lhs) == len(n.Rhs) {
				r = n.Rhs[i]
			}
			w.store(l, r)
		}
		for _, r := range n.Rhs {
			w.walk(r)
		}
		return false
	case *ast.IncDecStmt:
		w.store(n.X, nil)
		return false
	case *ast.ValueSpec:
		if n.Type != nil {
			for _, v := range n.Values {
				w.flow(v, info.TypeOf(n.Type))
			}
		}
	case *ast.ReturnStmt:
		if len(w.sig) > 0 {
			if res := w.sig[len(w.sig)-1].Results(); res.Len() == len(n.Results) {
				for i, r := range n.Results {
					w.flow(r, res.At(i).Type())
				}
			}
		}
	case *ast.SendStmt:
		if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
			w.flow(n.Value, ch.Elem())
		}
	case *ast.CompositeLit:
		w.composite(n)
		return false
	case *ast.CaseClause:
		for _, e := range n.List {
			if !w.isConst(e) {
				w.walk(e)
			}
		}
		for _, s := range n.Body {
			w.walk(s)
		}
		return false
	case *ast.BinaryExpr:
		switch n.Op {
		case token.EQL, token.NEQ:
			w.st.compare(info.TypeOf(n.X))
			fallthrough
		case token.LSS, token.GTR, token.LEQ, token.GEQ:
			for _, e := range []ast.Expr{n.X, n.Y} {
				if !w.isConst(e) {
					w.walk(e)
				}
			}
			return false
		}
	case *ast.CallExpr:
		return w.call(n)
	case *ast.SelectorExpr:
		if sel := info.Selections[n]; sel != nil {
			w.path(sel, true)
		}
	case *ast.Ident:
		if c, ok := info.Uses[n].(*types.Const); ok && !w.test {
			if nt, ok := c.Type().(*types.Named); ok {
				w.st.produced[valueKey{nt.Obj(), c.Val().ExactString()}] = true
			}
		}
	}
	return true
}

// isConst reports whether e names a constant.
func (w *stateWalk) isConst(e ast.Expr) bool {
	e = ast.Unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		e = sel.Sel
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, ok = w.info.Uses[id].(*types.Const)
	return ok
}

// isZero reports whether e is a constant zero value or nil.
func (w *stateWalk) isZero(e ast.Expr) bool {
	tv := w.info.Types[e]
	if tv.IsNil() {
		return true
	}
	if tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Bool:
		return !constant.BoolVal(tv.Value)
	case constant.String:
		return constant.StringVal(tv.Value) == ""
	default:
		return constant.Sign(tv.Value) == 0
	}
}

// setField records a store of v into field f; v is nil for ++ and --.
func (w *stateWalk) setField(f *types.Var, v ast.Expr) {
	if w.test {
		return
	}
	if owner, ok := w.st.knobs[f.Pos()]; ok && owner != w.defaults && w.guards[f.Pos()] == 0 && (v == nil || !w.isZero(v)) {
		w.st.set[f.Pos()] = true
	}
}

// store walks the target of an assignment: a field stored to is not read,
// though every field on the way to it is.
func (w *stateWalk) store(l, r ast.Expr) {
	if sel, ok := ast.Unparen(l).(*ast.SelectorExpr); ok {
		if s := w.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			w.path(s, false)
			w.setField(s.Obj().(*types.Var), r)
			w.walk(sel.X)
			if r != nil {
				w.flow(r, s.Obj().Type())
			}
			return
		}
	}
	if r != nil {
		w.flow(r, w.info.TypeOf(l))
	}
	w.walk(l)
}

// path marks the embedded fields a selection passes through as read, and
// the field it selects when last is set.
func (w *stateWalk) path(sel *types.Selection, last bool) {
	t := sel.Recv()
	idx := sel.Index()
	for i, x := range idx {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || i == len(idx)-1 && (sel.Kind() != types.FieldVal || !last) {
			return
		}
		f := st.Field(x)
		w.st.read[f.Pos()] = true
		t = f.Type()
	}
}

// flow records that e's value is stored where a value of type to goes.
func (w *stateWalk) flow(e ast.Expr, to types.Type) {
	if to == nil {
		return
	}
	if it, ok := to.Underlying().(*types.Interface); !ok || it.NumMethods() > 0 {
		return
	}
	if t := w.info.TypeOf(e); t != nil && !types.IsInterface(t) {
		if tup, ok := t.(*types.Tuple); ok {
			for i := 0; i < tup.Len(); i++ {
				w.st.escape(tup.At(i).Type(), true)
			}
			return
		}
		w.st.escape(t, true)
	}
}

// call walks a call's arguments into its parameters; a conversion from a
// non-constant produces every constant of its named type.
func (w *stateWalk) call(n *ast.CallExpr) bool {
	tv := w.info.Types[n.Fun]
	if tv.IsType() {
		if len(n.Args) == 1 {
			w.flow(n.Args[0], tv.Type)
			if nt, ok := tv.Type.(*types.Named); ok && !w.test && w.info.Types[n.Args[0]].Value == nil {
				w.st.anyValue[nt.Obj()] = true
			}
		}
		return true
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return true
	}
	params := sig.Params()
	if w.test && sig.Variadic() {
		if fn, ok := w.info.Uses[selName(n.Fun)].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "testing" {
			// A log line pins nothing.
			return false
		}
	}
	for i, a := range n.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1 && !n.Ellipsis.IsValid():
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		w.flow(a, pt)
	}
	return true
}

// selName is the selected name of a selector expression, else nil.
func selName(e ast.Expr) *ast.Ident {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		return sel.Sel
	}
	return nil
}

// composite walks a composite literal: its keyed and positional struct
// fields are stores, its elements flow into the element type.
func (w *stateWalk) composite(n *ast.CompositeLit) {
	t := w.info.TypeOf(n)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	elem := func(e ast.Expr, to types.Type) {
		w.flow(e, to)
		w.walk(e)
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, e := range n.Elts {
			f := u.Field(i)
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				f = w.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
				e = kv.Value
			}
			w.setField(f, e)
			elem(e, f.Type())
		}
	case *types.Map:
		for _, e := range n.Elts {
			kv := e.(*ast.KeyValueExpr)
			elem(kv.Key, u.Key())
			elem(kv.Value, u.Elem())
		}
	default:
		var et types.Type
		switch u := u.(type) {
		case *types.Slice:
			et = u.Elem()
		case *types.Array:
			et = u.Elem()
		}
		for _, e := range n.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				w.walk(kv.Key)
				e = kv.Value
			}
			elem(e, et)
		}
	}
}
