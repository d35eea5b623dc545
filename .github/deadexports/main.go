// Command deadexports lists the exported names of the first module's
// internal/ packages that no non-test file of the given modules uses,
// one per line and sorted, and prints their count to stderr. CI runs it
// from the repository root and compares the list with allow.txt, so a
// change that leaves an internal export without a caller, or removes
// one the list still names, fails until the list is updated:
//
//	go run .github/deadexports/main.go . perfbench | diff -u .github/deadexports/allow.txt -
//
// Regenerate the list after an intended change with
//
//	go run .github/deadexports/main.go . perfbench > .github/deadexports/allow.txt
//
// A name ending in "(interface method name)" is a method named like a
// method of an interface declared in the scanned packages, most likely
// an implementation.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type pkg struct {
	ImportPath, Dir string
	GoFiles         []string
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func main() {
	srcs := map[string]pkg{}
	var order []string
	for _, root := range os.Args[1:] {
		cmd := exec.Command("go", "list", "-json", "./...")
		cmd.Dir = root
		out, err := cmd.Output()
		if err != nil {
			panic(err)
		}
		for dec := json.NewDecoder(strings.NewReader(string(out))); dec.More(); {
			var p pkg
			if err := dec.Decode(&p); err != nil {
				panic(err)
			}
			if _, ok := srcs[p.ImportPath]; !ok {
				srcs[p.ImportPath] = p
				order = append(order, p.ImportPath)
			}
		}
	}
	fset := token.NewFileSet()
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	checked := map[string]*types.Package{}
	std := importer.Default()
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if tp, ok := checked[path]; ok {
			return tp, nil
		}
		p, ok := srcs[path]
		if !ok {
			return std.Import(path)
		}
		var files []*ast.File
		for _, f := range p.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(p.Dir, f), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, af)
		}
		tp, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		checked[path] = tp
		return tp, err
	}
	for _, path := range order {
		if _, err := imp(path); err != nil {
			panic(err)
		}
	}
	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		used[obj] = true
	}
	// A method named like a method of an interface declared in the
	// scanned packages is most likely an implementation.
	ifaceMethods := map[string]bool{}
	for _, tp := range checked {
		for _, name := range tp.Scope().Names() {
			if it, ok := tp.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
	}
	var hits []string
	report := func(obj types.Object, name string) {
		if used[obj] {
			return
		}
		if _, ok := obj.(*types.Func); ok && ifaceMethods[obj.Name()] {
			name += "  (interface method name)"
		}
		hits = append(hits, name)
	}
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = os.Args[1]
	out, err := cmd.Output()
	if err != nil {
		panic(err)
	}
	module := strings.TrimSpace(string(out))
	for _, path := range order {
		if !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		scope := checked[path].Scope()
		short := strings.TrimPrefix(path, module+"/internal/")
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			report(obj, short+"."+name)
			if named, ok := obj.Type().(*types.Named); ok && obj == named.Obj() {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						report(m, short+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Strings(hits)
	for _, h := range hits {
		fmt.Println(h)
	}
	fmt.Fprintf(os.Stderr, "%d exported names without a non-test use\n", len(hits))
}
