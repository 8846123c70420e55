package vmr2l_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// liveAllowlist names the functions under internal/ that no non-test code
// reaches but that stay, each with the need that keeps it. Keys are
// types.Func.FullName without the "vmr2l/internal/" prefix.
var liveAllowlist = map[string]string{
	"(*client.Client).Submit":                  "the Go call for one-shot POST /v2/jobs that README's client example shows; the client, coord and bench tests submit through it",
	"cluster.New":                              "empty-cluster fixture shared by the cluster, heuristics, sched and serve tests",
	"scenario.RandomScenario":                  "spec fuzzer shared by the scenario, service and bench tests",
	"(*sched.Dynamics).CheckFailureInvariants": "failure-accounting oracle the sched, scenario and bench tests check churned clusters against",
	"exact.NewFormulation":                     formulationReason,
	"exact.AssignmentOf":                       formulationReason,
	"(*exact.Formulation).Check":               formulationReason,
	"(*exact.Formulation).Objective":           formulationReason,
	"(*exact.Formulation).Migrations":          formulationReason,
	"(*exact.Formulation).Vars":                formulationReason,
}

const formulationReason = "the paper's MIP constraints written apart from cluster, sim and solver: the oracle the planned legality property test checks them against"

// TestNoDeadCode fails when a function or method declared under internal/
// is reached from no non-test file of the module: not by a call, a method
// value or a reference, and not through an interface its receiver
// satisfies. Packages are type-checked from source, so a method is
// resolved by its receiver, not by its name.
func TestNoDeadCode(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		ip := path.Join("vmr2l", filepath.ToSlash(filepath.Dir(p)))
		files[ip] = append(files[ip], f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Type-check each package after its imports, the standard library
	// from its export data.
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	checked := map[string]*types.Package{}
	std := importer.Default()
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		if pkg, ok := checked[ip]; ok {
			return pkg, nil
		}
		if files[ip] == nil {
			return std.Import(ip)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(ip, fset, files[ip], info)
		checked[ip] = pkg
		return pkg, err
	}
	for ip := range files {
		if _, err := imp(ip); err != nil {
			t.Fatalf("type-check %s: %v", ip, err)
		}
	}

	live := map[*types.Func]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			live[fn.Origin()] = true
		}
	}
	for _, sel := range info.Selections {
		if fn, ok := sel.Obj().(*types.Func); ok {
			live[fn.Origin()] = true
		}
	}
	ifaces := interfacesOf(checked)

	dead := map[string]token.Position{}
	for ip, pkgFiles := range files {
		if !strings.HasPrefix(ip, "vmr2l/internal/") {
			continue
		}
		for _, f := range pkgFiles {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				if !live[fn] && !satisfiesInterface(fn, ifaces) {
					dead[strings.ReplaceAll(fn.FullName(), "vmr2l/internal/", "")] = fset.Position(fd.Pos())
				}
			}
		}
	}
	var names []string
	for name := range dead {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := liveAllowlist[name]; !ok {
			t.Errorf("%s: %s is reached by no non-test code; delete it, move it into a _test.go file, or allowlist it with a reason", dead[name], name)
		}
	}
	for name := range liveAllowlist {
		if _, ok := dead[name]; !ok {
			t.Errorf("allowlist entry %s is live or no longer exists; remove it", name)
		}
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(ip string) (*types.Package, error) { return f(ip) }

// interfacesOf returns error and every named interface with methods that
// the given packages or anything they import, transitively, declare.
func interfacesOf(pkgs map[string]*types.Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams() != nil {
				continue // Implements is unspecified for generic types
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				ifaces = append(ifaces, it)
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return ifaces
}

// satisfiesInterface reports whether fn is a method whose receiver type
// (or a pointer to it) satisfies an interface declaring a method of fn's
// name, so that a call through the interface may reach it.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	T := recv.Type()
	if p, ok := T.(*types.Pointer); ok {
		T = p.Elem()
	}
	if named, ok := T.(*types.Named); !ok || named.TypeParams() != nil {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(T, it) || types.Implements(types.NewPointer(T), it)) {
				return true
			}
		}
	}
	return false
}
