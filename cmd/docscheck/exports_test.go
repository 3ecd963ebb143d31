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
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The exports invariant: every exported function and method declared in a
// non-test file under internal/ is referenced from some non-test file of
// the module. Code that only tests call belongs in the tests (a package's
// export_test.go when it needs unexported state), not in the product.
//
// A reference is any use that go/types resolves to the declaration, from a
// non-test file in any package (cmd/ and bench/ included), other than a
// use inside the declaration's own body. A method also counts as
// referenced when its receiver type implements an interface that declares
// it — named or literal, from the module or the standard library — since
// a call through the interface (a fmt.Stringer, a heap.Interface, a
// type-assertion probe) names the interface's method, not the concrete
// one. Constants, variables and types are out of scope.

// exportsAllowlist names test-only exports the check accepts, as
// "<package dir>.<Name>" or "<package dir>.<Type>.<Method>", each with a
// comment giving its reason. Keep it to five entries or fewer; an entry
// the check no longer reports fails the test, so the list cannot go stale.
var exportsAllowlist = map[string]bool{
	// The invariant checker of a cluster's processor accounting. The
	// simulator's property tests call it through Simulator.CheckInvariants
	// from package sim, which a cluster export_test.go cannot reach.
	"internal/cluster.Cluster.CheckInvariants": true,
}

func TestNoTestOnlyExports(t *testing.T) {
	if len(exportsAllowlist) > 5 {
		t.Fatalf("exportsAllowlist has %d entries; the limit is 5", len(exportsAllowlist))
	}
	s, err := repoScan()
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	for _, f := range s.unreferenced() {
		reported[f.name] = true
		if !exportsAllowlist[f.name] {
			t.Errorf("%s: exported %s is referenced only from tests: delete it, or move it into the package's export_test.go", f.pos, f.name)
		}
	}
	for name := range exportsAllowlist {
		if !reported[name] {
			t.Errorf("exportsAllowlist entry %s is not test-only any more: drop it", name)
		}
	}
}

// TestExportsCheckFixture runs the check over testdata/exports.txtar, a
// module holding one test-only export and four exports that only look
// unused: a method satisfying a module interface, one reached through an
// anonymous type-assertion probe, a String method and a function called
// from bench/.
func TestExportsCheckFixture(t *testing.T) {
	s, err := scanModule(unpackFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range s.unreferenced() {
		got = append(got, f.name)
	}
	if want := []string{"internal/lib.TestOnly"}; !slices.Equal(got, want) {
		t.Fatalf("reported %q, want %q", got, want)
	}
}

// unpackFixture writes each "-- path --" section of testdata/exports.txtar
// into a temporary directory and returns it.
func unpackFixture(t *testing.T) string {
	t.Helper()
	archive, err := os.ReadFile("testdata/exports.txtar")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	sections := txtarHeader.Split(string(archive), -1)
	for i, m := range txtarHeader.FindAllStringSubmatch(string(archive), -1) {
		path := filepath.Join(root, filepath.FromSlash(m[1]))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sections[i+1]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// txtarHeader matches a "-- path --" file header line of a txtar archive.
var txtarHeader = regexp.MustCompile(`(?m)^-- (\S+) --\n`)

// export is one test-only exported function or method.
type export struct {
	name string // "<package dir>.<Name>" or "<package dir>.<Type>.<Method>"
	pos  token.Position
}

// exportScan type-checks a module's packages from source, non-test files
// only, sharing one object per declaration across packages so that a use
// in one package resolves to the declaring package's object.
type exportScan struct {
	fset   *token.FileSet
	root   string
	module string
	std    types.ImporterFrom
	pkgs   map[string]*scannedPkg // by import path
}

type scannedPkg struct {
	dir   string // relative to the module root, slash-separated
	types *types.Package
	info  *types.Info
	files []*ast.File
}

var modulePattern = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// repoScan is the repository's module scan, shared by the checks.
var repoScan = sync.OnceValues(func() (*exportScan, error) { return scanModule("../..") })

// scanModule loads and type-checks the non-test files of every package of
// the module at root.
func scanModule(root string) (*exportScan, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := modulePattern.FindSubmatch(mod)
	if m == nil {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	fset := token.NewFileSet()
	s := &exportScan{
		fset:   fset,
		root:   root,
		module: string(m[1]),
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   map[string]*scannedPkg{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		importPath := s.module
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		_, err = s.load(importPath)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// ImportFrom resolves the module's own packages through load and the
// standard library through the source importer.
func (s *exportScan) ImportFrom(path, _ string, mode types.ImportMode) (*types.Package, error) {
	if path == s.module || strings.HasPrefix(path, s.module+"/") {
		p, err := s.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	// Resolving from GOROOT/src finds std's vendored packages and keeps
	// go/build from asking the go command about module paths.
	return s.std.ImportFrom(path, filepath.Join(runtime.GOROOT(), "src"), mode)
}

func (s *exportScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

// load type-checks the package at a module import path once.
func (s *exportScan) load(path string) (*scannedPkg, error) {
	if p, ok := s.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	s.pkgs[path] = nil
	dir := strings.TrimPrefix(strings.TrimPrefix(path, s.module), "/")
	bp, err := build.Default.ImportDir(filepath.Join(s.root, filepath.FromSlash(dir)), 0)
	if err != nil {
		delete(s.pkgs, path)
		return nil, err
	}
	p := &scannedPkg{dir: dir, info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: s}
	if p.types, err = conf.Check(path, s.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	s.pkgs[path] = p
	return p, nil
}

// unreferenced lists the exported functions and methods under internal/
// that no non-test file references, directly or through an interface.
func (s *exportScan) unreferenced() []export {
	decls := map[*types.Func]*ast.FuncDecl{}
	dirOf := map[*types.Func]string{}
	for _, p := range s.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					fn := p.info.Defs[fd.Name].(*types.Func)
					decls[fn], dirOf[fn] = fd, p.dir
				}
			}
		}
	}
	used := map[*types.Func]bool{}
	for _, p := range s.pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if fd := decls[fn]; fd != nil && fd.Pos() <= id.Pos() && id.Pos() < fd.End() {
				continue // recursion is not a caller
			}
			used[fn] = true
		}
	}
	ifaces := s.interfaces()
	var out []export
	for fn, fd := range decls {
		if used[fn] || satisfiesInterface(fn, ifaces) {
			continue
		}
		name := dirOf[fn] + "." + fn.Name()
		if recv := fn.Signature().Recv(); recv != nil {
			name = dirOf[fn] + "." + receiverName(recv.Type()) + "." + fn.Name()
		}
		out = append(out, export{name: name, pos: s.fset.Position(fd.Pos())})
	}
	slices.SortFunc(out, func(a, b export) int { return strings.Compare(a.name, b.name) })
	return out
}

// interfaces collects every method-set interface a call could go through:
// the interface types the module's code mentions (literals included),
// every named interface of every package loaded, and error.
func (s *exportScan) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range s.pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	return out
}

// satisfiesInterface reports whether fn is a method whose receiver type,
// as a value or a pointer, implements an interface declaring fn's name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// receiverName is a method receiver's type name without pointer or type
// parameters.
func receiverName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// The knobs invariant: every exported field of an exported struct type
// named …Config under internal/ is written by some non-test file of the
// module (cmd/ and bench/ included). A field no caller outside the tests
// sets is an option the product never uses; it goes, with its plumbing.
//
// A write is a composite-literal key (or position, in an unkeyed
// literal), the target of an assignment or increment — x.F, x.F.G and
// x.F[k] all write F — or the operand of &x.F, as in a flag.…Var
// binding. A config's own defaulting method counts as a writer.

func TestNoTestOnlyConfigFields(t *testing.T) {
	s, err := repoScan()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range s.unwrittenConfigFields() {
		t.Errorf("%s: config field %s is set only by tests: delete it and its plumbing, or make it a constant", f.pos, f.name)
	}
}

// TestConfigFieldsCheckFixture runs the knobs check over
// testdata/exports.txtar, whose lib.Config has one field only a test sets
// and three that non-test code sets: by a flag binding, in a preset
// function and by assignment.
func TestConfigFieldsCheckFixture(t *testing.T) {
	s, err := scanModule(unpackFixture(t))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range s.unwrittenConfigFields() {
		got = append(got, f.name)
	}
	if want := []string{"internal/lib.Config.TestSet"}; !slices.Equal(got, want) {
		t.Fatalf("reported %q, want %q", got, want)
	}
}

// unwrittenConfigFields lists, sorted by name, the exported fields of the
// exported …Config structs under internal/ that no non-test file writes.
func (s *exportScan) unwrittenConfigFields() []export {
	fields := map[*types.Var]export{}
	for _, p := range s.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !strings.HasSuffix(name, "Config") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = export{name: p.dir + "." + name + "." + f.Name(), pos: s.fset.Position(f.Pos())}
				}
			}
		}
	}
	written := map[*types.Var]bool{}
	for _, p := range s.pkgs {
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markTarget(p.info, lhs, written)
					}
				case *ast.IncDecStmt:
					markTarget(p.info, n.X, written)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						markTarget(p.info, n.X, written)
					}
				case *ast.CompositeLit:
					markLiteral(p.info, n, written)
				}
				return true
			})
		}
	}
	var out []export
	for f, e := range fields {
		if !written[f] {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b export) int { return strings.Compare(a.name, b.name) })
	return out
}

// markTarget records as written every struct field an assignment target
// or address-of operand selects: the fields of x.F.G[k] are G and F.
func markTarget(info *types.Info, e ast.Expr, written map[*types.Var]bool) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
				written[v] = true
			}
			e = x.X
		default:
			return
		}
	}
}

// markLiteral records as written the fields a struct composite literal
// sets.
func markLiteral(info *types.Info, lit *ast.CompositeLit, written map[*types.Var]bool) {
	st, ok := info.Types[lit].Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
				written[v] = true
			}
		} else {
			written[st.Field(i)] = true
		}
	}
}
