package repro

// Dead-code guard. Every top-level func, method, type, var and const
// declared in a non-test file under internal/ or cmd/ must be live:
//
//   - reachable from code that ships, through references in non-test
//     files anywhere in the tree, perfbench/ (a separate module that
//     imports internal/) included. The roots are every declaration
//     outside internal/ and cmd/ (easched, examples, perfbench), each
//     main and init, and each blank `var _ = ...`;
//   - an exported method of a type that easched's exported API reaches
//     (signatures and exported fields, closed transitively), because
//     users of easched can call it;
//   - a method the standard library calls through one of
//     implicitInterfaces;
//   - or in deadAllowlist below.
//
// Liveness is a fixed point over references: a helper that only a dead
// helper calls is dead too. References are resolved by go/types: the
// test type-checks every package of the tree from source (non-test
// files only; the standard library comes from the export data of one
// `go list -export -deps` call, see stdImporter), so a selector x.M
// keeps alive exactly the method it names. A call
// through an interface method keeps that method alive on every type of
// the tree that implements the interface.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadAllowlist keeps declarations that no shipped code reaches.
// Keys are "importpath.Name" or "importpath.Type.Method".
var deadAllowlist = map[string]string{
	// Panicking constructors for tests (about 280 call sites); deleting
	// them would only move the same helper into each package's tests.
	"repro/internal/alloc.MustBuild":             "test constructor",
	"repro/internal/core.MustSchedule":           "test constructor",
	"repro/internal/ideal.MustBuild":             "test constructor",
	"repro/internal/interval.MustDecompose":      "test constructor",
	"repro/internal/opt.MustSolve":               "test constructor",
	"repro/internal/task.MustGenerate":           "test constructor",
	"repro/internal/task.MustGenerateStochastic": "test constructor",
	"repro/internal/maxflow.Graph.MustAddEdge":   "test constructor",
	// Runs one experiment by ID: the experiment tests and the per-figure
	// benchmarks call it about 20 times; energysim holds the Descriptor.
	"repro/internal/experiments.Run": "test entry point",
	// The decoding half of the corpus codec: FuzzSchedulers replays every
	// entry cmd/conform writes under testdata/fuzz/ through it.
	"repro/internal/fuzzenc.Decode": "fuzz corpus decoder",
}

// implicitInterfaces are the standard-library interfaces through which
// the standard library itself calls methods of the tree (fmt, errors,
// encoding/json, net/http, sort, container/heap, io), so no selector in
// the tree names them. A type that implements one keeps those methods.
var implicitInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"io", "Writer"},
}

type deadDecl struct {
	key     string // "path.Name", or "path.Recv.Name" for a method
	pos     token.Position
	checked bool           // declared in a non-test file under internal/ or cmd/
	uses    []types.Object // objects its declaration refers to
	live    bool
}

func TestNoDeadCode(t *testing.T) {
	fset := token.NewFileSet()
	src := &srcImporter{fset: fset, files: map[string][]*ast.File{},
		pkgs: map[string]*types.Package{}, info: &types.Info{
			Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ipath := "repro"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			ipath += "/" + dir
		}
		src.files[ipath] = append(src.files[ipath], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if src.files["repro/easched"] == nil || src.files["repro/perfbench"] == nil {
		t.Fatal("easched or perfbench not found; run from the repository root")
	}
	if src.std, err = stdImporter(fset, src.files); err != nil {
		t.Fatal(err)
	}

	decls := map[types.Object]*deadDecl{}
	var all []*deadDecl
	var named []*types.TypeName // the tree's concrete named types
	for ipath, files := range src.files {
		pkg, err := src.Import(ipath)
		if err != nil {
			t.Fatalf("type-check %s: %v", ipath, err)
		}
		checked := strings.HasPrefix(ipath, "repro/internal/") || strings.HasPrefix(ipath, "repro/cmd/")
		add := func(name *ast.Ident, nodes ...ast.Node) *deadDecl {
			obj := src.info.Defs[name]
			dd := &deadDecl{key: declKey(obj), pos: fset.Position(name.Pos()),
				checked: checked && name.Name != "_", uses: src.uses(nodes...)}
			if obj != nil {
				decls[obj] = dd
			}
			all = append(all, dd)
			return dd
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					dd := add(decl.Name, decl.Recv, decl.Type, decl.Body)
					if decl.Recv == nil && (decl.Name.Name == "main" || decl.Name.Name == "init") {
						dd.checked = false
					}
				case *ast.GenDecl:
					// An iota group is one unit: dropping a member renumbers the rest.
					var group *ast.Ident
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name, spec.TypeParams, spec.Type)
						case *ast.ValueSpec:
							for i, n := range spec.Names {
								nodes := []ast.Node{spec.Type}
								if i < len(spec.Values) {
									nodes = append(nodes, spec.Values[i])
								} else if len(spec.Values) == 1 {
									nodes = append(nodes, spec.Values[0])
								}
								dd := add(n, nodes...)
								if decl.Tok == token.CONST && (usesIota(spec) || len(spec.Values) == 0) {
									if group == nil {
										group = n
									} else {
										first := decls[src.info.Defs[group]]
										first.uses = append(first.uses, src.info.Defs[n])
										dd.uses = append(dd.uses, src.info.Defs[group])
									}
								}
							}
						}
					}
				}
			}
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				named = append(named, tn)
			}
		}
	}

	var roots []*deadDecl
	root := func(obj types.Object) {
		if dd := decls[obj]; dd != nil {
			roots = append(roots, dd)
		}
	}
	// Exported methods of every type easched's exported API reaches.
	easched := src.pkgs["repro/easched"].Scope()
	api := apiWalker{seen: map[types.Type]bool{}, method: func(m *types.Func) { root(m) }}
	for _, name := range easched.Names() {
		if obj := easched.Lookup(name); obj.Exported() {
			api.visit(obj.Type())
		}
	}
	// Methods the standard library calls through its own interfaces.
	var implicit []*types.Interface
	implicit = append(implicit, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, in := range implicitInterfaces {
		std, err := src.std.Import(in[0])
		if err != nil {
			t.Fatal(err)
		}
		implicit = append(implicit, std.Scope().Lookup(in[1]).Type().Underlying().(*types.Interface))
	}
	for _, iface := range implicit {
		for _, m := range implementers(named, iface) {
			root(m)
		}
	}
	for _, dd := range all {
		if !dd.checked || deadAllowlist[dd.key] != "" {
			roots = append(roots, dd)
		}
	}

	// Fixed point. An interface method, once used, keeps its
	// implementations alive.
	viaIface := map[*types.Func]bool{}
	for len(roots) > 0 {
		dd := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if dd.live {
			continue
		}
		dd.live = true
		for _, obj := range dd.uses {
			root(obj)
			m, ok := obj.(*types.Func)
			if !ok || viaIface[m] {
				continue
			}
			if recv := m.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					viaIface[m] = true
					for _, impl := range implementers(named, iface) {
						if impl.Name() == m.Name() {
							root(impl)
						}
					}
				}
			}
		}
	}

	var dead []string
	for _, dd := range all {
		if !dd.live {
			dead = append(dead, dd.pos.String()+": "+strings.TrimPrefix(dd.key, "repro/"))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error("unreachable from shipped code: " + d)
	}
	if len(dead) > 0 {
		t.Log("delete it, or add it to deadAllowlist in deadcode_test.go with the reason")
	}
}

// stdImporter imports the packages outside the tree that files import
// (the standard library) and those implicitInterfaces name, from the
// export data that one `go list -export -deps` call builds or finds in
// the build cache, rather than one go list per package.
func stdImporter(fset *token.FileSet, files map[string][]*ast.File) (types.Importer, error) {
	var paths []string
	for _, in := range implicitInterfaces {
		paths = append(paths, in[0])
	}
	for _, fs := range files {
		for _, f := range fs {
			for _, spec := range f.Imports {
				if path, err := strconv.Unquote(spec.Path.Value); err == nil && files[path] == nil {
					paths = append(paths, path)
				}
			}
		}
	}
	sort.Strings(paths)
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}"}, slices.Compact(paths)...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, file, _ := strings.Cut(line, "=")
		export[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(export[path])
	}), nil
}

// srcImporter type-checks the tree's packages from their parsed
// non-test files, sharing one types.Info, and imports everything else
// from std.
type srcImporter struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // import path -> parsed non-test files
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	if pkg := im.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	files, ok := im.files[path]
	if !ok {
		return im.std.Import(path)
	}
	conf := types.Config{Importer: im}
	pkg, err := conf.Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = pkg
	return pkg, nil
}

// uses returns the objects the identifiers under nodes refer to.
func (im *srcImporter) uses(nodes ...ast.Node) []types.Object {
	var objs []types.Object
	for _, n := range nodes {
		if n == nil || isNilNode(n) {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				// A method or field of an instantiated generic type
				// is its own object; the declaration is its origin's.
				switch obj := im.info.Uses[id].(type) {
				case nil:
				case *types.Func:
					objs = append(objs, obj.Origin())
				case *types.Var:
					objs = append(objs, obj.Origin())
				default:
					objs = append(objs, obj)
				}
			}
			return true
		})
	}
	return objs
}

// implementers returns, for each type among named (or its pointer)
// that implements iface, the methods that satisfy iface's methods.
func implementers(named []*types.TypeName, iface *types.Interface) []*types.Func {
	var out []*types.Func
	for _, tn := range named {
		for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			if !types.Implements(typ, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(typ, true, m.Pkg(), m.Name()); obj != nil {
					out = append(out, obj.(*types.Func))
				}
			}
			break
		}
	}
	return out
}

// apiWalker visits the types an exported API exposes: signatures,
// exported struct fields, element types, and the exported methods of
// every named type, which it reports to method.
type apiWalker struct {
	seen   map[types.Type]bool
	method func(*types.Func)
}

func (a *apiWalker) visit(t types.Type) {
	t = types.Unalias(t)
	if t == nil || a.seen[t] {
		return
	}
	a.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if pkg := t.Obj().Pkg(); pkg == nil || !strings.HasPrefix(pkg.Path(), "repro") {
			return
		}
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				a.method(m)
				a.visit(m.Type())
			}
		}
		a.visit(t.Underlying())
	case *types.Pointer:
		a.visit(t.Elem())
	case *types.Slice:
		a.visit(t.Elem())
	case *types.Array:
		a.visit(t.Elem())
	case *types.Chan:
		a.visit(t.Elem())
	case *types.Map:
		a.visit(t.Key())
		a.visit(t.Elem())
	case *types.Signature:
		a.visit(t.Params())
		a.visit(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			a.visit(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if f := t.Field(i); f.Exported() || f.Embedded() {
				a.visit(f.Type())
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			a.visit(t.Method(i).Type())
		}
	}
}

// declKey names a declaration for deadAllowlist and the failure report.
func declKey(obj types.Object) string {
	if obj == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			if n, ok := typ.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// isNilNode reports a typed nil inside a non-nil ast.Node.
func isNilNode(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n == nil
	case *ast.FieldList:
		return n == nil
	case *ast.FuncType:
		return n == nil
	}
	return false
}

func usesIota(spec *ast.ValueSpec) bool {
	found := false
	for _, v := range spec.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
				found = true
			}
			return !found
		})
	}
	return found
}
