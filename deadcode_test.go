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
//     (aliases, signatures and exported fields, closed transitively),
//     because users of easched can call it;
//   - or in deadAllowlist below.
//
// Liveness is a fixed point over references: a helper that only a dead
// helper calls is dead too. References resolve by import path and name,
// which needs no type checker: a qualified or same-package identifier
// names one declaration, and a selector x.M keeps every method named M
// alive, whatever x's type (only the same package's, when M is
// unexported).

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
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
	"repro/internal/power.MustNewTable":          "test constructor",
	// Runs one experiment by ID: the experiment tests and the per-figure
	// benchmarks call it about 20 times; energysim holds the Descriptor.
	"repro/internal/experiments.Run": "test entry point",
	// The decoding half of the corpus codec: FuzzSchedulers replays every
	// entry cmd/conform writes under testdata/fuzz/ through it.
	"repro/internal/fuzzenc.Decode": "fuzz corpus decoder",
}

// implicitMethods are called through standard-library interfaces
// (fmt.Stringer, error, json.Marshaler, http.Handler, sort.Interface,
// heap.Interface, io.Writer, ...), where no selector in the tree need
// name them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Write": true, "Sync": true,
}

type deadDecl struct {
	key      string // "path.Name", or "path.Recv.Name" for a method
	method   string // method name; "" for a package-level name
	pos      token.Position
	checked  bool // declared in a non-test file under internal/ or cmd/
	exported bool
	refs     []string // package-level keys this declaration names
	sels     []string // selKeys of the selectors (x.Sel) this declaration uses
	api      []string // package-level keys its exported surface names
	live     bool
}

type deadPkg struct {
	decls   map[string]*deadDecl   // package-level name -> declaration
	methods map[string][]*deadDecl // receiver type name -> its methods
	types   map[string]bool        // package-level names that are types
}

func TestNoDeadCode(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := map[string]*deadPkg{}
	var all []*deadDecl
	byMethod := map[string][]*deadDecl{}

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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		ipath := "repro"
		if dir != "." {
			ipath += "/" + dir
		}
		p := pkgs[ipath]
		if p == nil {
			p = &deadPkg{decls: map[string]*deadDecl{}, methods: map[string][]*deadDecl{}, types: map[string]bool{}}
			pkgs[ipath] = p
		}
		checked := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")
		imports := fileImports(f)
		add := func(key, method, name string, pos token.Pos, api []string, nodes ...ast.Node) *deadDecl {
			dd := &deadDecl{key: key, method: method, pos: fset.Position(pos), checked: checked,
				exported: ast.IsExported(name), api: api}
			for _, n := range nodes {
				collectRefs(n, ipath, imports, &dd.refs, &dd.sels)
			}
			all = append(all, dd)
			return dd
		}
		apiOf := func(n ast.Node) []string { return publicTypeRefs(n, ipath, imports) }
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				name := decl.Name.Name
				if decl.Recv == nil {
					dd := add(ipath+"."+name, "", name, decl.Pos(), apiOf(decl.Type), decl.Type, decl.Body)
					if name == "main" || name == "init" {
						dd.checked = false
					} else {
						p.decls[name] = dd
					}
					continue
				}
				recv := recvTypeName(decl.Recv.List[0].Type)
				dd := add(ipath+"."+recv+"."+name, name, name, decl.Pos(), apiOf(decl.Type), decl.Recv, decl.Type, decl.Body)
				p.methods[recv] = append(p.methods[recv], dd)
				byMethod[selKey(ipath, name)] = append(byMethod[selKey(ipath, name)], dd)
			case *ast.GenDecl:
				// An iota group is one unit: dropping a member renumbers the rest.
				var group *deadDecl
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						dd := add(ipath+"."+spec.Name.Name, "", spec.Name.Name, spec.Pos(), apiOf(spec.Type), spec.TypeParams, spec.Type)
						p.decls[spec.Name.Name] = dd
						p.types[spec.Name.Name] = true
					case *ast.ValueSpec:
						for i, n := range spec.Names {
							nodes := []ast.Node{spec.Type}
							if i < len(spec.Values) {
								nodes = append(nodes, spec.Values[i])
							} else if len(spec.Values) == 1 {
								nodes = append(nodes, spec.Values[0])
							}
							dd := add(ipath+"."+n.Name, "", n.Name, n.Pos(), apiOf(spec.Type), nodes...)
							if n.Name == "_" {
								dd.checked = false
								continue
							}
							p.decls[n.Name] = dd
							if decl.Tok == token.CONST && (usesIota(spec) || len(spec.Values) == 0) {
								if group == nil {
									group = dd
								} else {
									group.refs = append(group.refs, dd.key)
									dd.refs = append(dd.refs, group.key)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pkgs["repro/easched"] == nil || pkgs["repro/perfbench"] == nil {
		t.Fatal("easched or perfbench not found; run from the repository root")
	}

	// Exported methods of every type easched's exported API reaches.
	var roots []*deadDecl
	reached := map[string]bool{}
	var reach func(keys []string)
	reach = func(keys []string) {
		for _, key := range keys {
			i := strings.LastIndex(key, ".")
			p := pkgs[key[:i]]
			if p == nil || !p.types[key[i+1:]] || reached[key] {
				continue
			}
			reached[key] = true
			reach(p.decls[key[i+1:]].api)
			for _, m := range p.methods[key[i+1:]] {
				if m.exported {
					roots = append(roots, m)
					reach(m.api)
				}
			}
		}
	}
	for _, dd := range pkgs["repro/easched"].decls {
		if dd.exported {
			reach(append([]string{dd.key}, dd.api...))
		}
	}

	for _, dd := range all {
		if !dd.checked || deadAllowlist[dd.key] != "" || (dd.method != "" && implicitMethods[dd.method]) {
			roots = append(roots, dd)
		}
	}
	lookup := func(key string) *deadDecl {
		i := strings.LastIndex(key, ".")
		if p := pkgs[key[:i]]; p != nil {
			return p.decls[key[i+1:]]
		}
		return nil
	}
	for len(roots) > 0 {
		dd := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if dd.live {
			continue
		}
		dd.live = true
		for _, k := range dd.refs {
			if r := lookup(k); r != nil && !r.live {
				roots = append(roots, r)
			}
		}
		for _, s := range dd.sels {
			for _, m := range byMethod[s] {
				if !m.live {
					roots = append(roots, m)
				}
			}
			delete(byMethod, s)
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

// fileImports maps each import's local name to its path.
func fileImports(f *ast.File) map[string]string {
	m := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		m[name] = path
	}
	return m
}

// collectRefs records the package-level names n uses, as keys, and the
// selector names it applies to values.
func collectRefs(n ast.Node, pkg string, imports map[string]string, refs, sels *[]string) {
	if n == nil || (isNilNode(n)) {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if path, ok := imports[x.Name]; ok {
					*refs = append(*refs, path+"."+n.Sel.Name)
					return false
				}
			}
			*sels = append(*sels, selKey(pkg, n.Sel.Name))
			collectRefs(n.X, pkg, imports, refs, sels)
			return false
		case *ast.Field:
			// Field and parameter names are not references.
			collectRefs(n.Type, pkg, imports, refs, sels)
			return false
		case *ast.Ident:
			*refs = append(*refs, pkg+"."+n.Name)
		}
		return true
	})
}

// selKey names a method for selector matching. Only the declaring
// package can select an unexported method.
func selKey(pkg, name string) string {
	if ast.IsExported(name) {
		return name
	}
	return pkg + "." + name
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

// publicTypeRefs returns the package-level names a type expression
// exposes: everything but the types of unexported struct fields.
func publicTypeRefs(expr ast.Node, pkg string, imports map[string]string) []string {
	var refs, sels []string
	if st, ok := expr.(*ast.StructType); ok && st != nil {
		for _, f := range st.Fields.List {
			exported := len(f.Names) == 0 // embedded
			for _, n := range f.Names {
				exported = exported || n.IsExported()
			}
			if exported {
				collectRefs(f.Type, pkg, imports, &refs, &sels)
			}
		}
		return refs
	}
	collectRefs(expr, pkg, imports, &refs, &sels)
	return refs
}

func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
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
