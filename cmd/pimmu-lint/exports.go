package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// keepDirective, followed by a reason, in a declaration's doc comment
// exempts that exported name from the dead-export rule: it marks a
// deliberate hook that only tests call.
const keepDirective = "//pimmu:keep"

// stdMethods satisfy standard-library interfaces (fmt, errors, encoding,
// sort, container/heap, io, net/http, flag), so the standard library
// calls them where no file in this repository has to.
var stdMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true, "Set": true,
}

// part is one name a top-level declaration declares, with its doc
// comments and the syntax in which its own name is not a read.
type part struct {
	id    *ast.Ident
	docs  []*ast.CommentGroup
	nodes []ast.Node
}

// parts lists the names d declares, the methods of a declared
// interface among them. A method's receiver is in none of its nodes.
func parts(d ast.Decl) []part {
	var ps []part
	switch d := d.(type) {
	case *ast.FuncDecl:
		p := part{id: d.Name, docs: []*ast.CommentGroup{d.Doc}, nodes: []ast.Node{d.Type}}
		if d.Body != nil {
			p.nodes = append(p.nodes, d.Body)
		}
		ps = append(ps, p)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ps = append(ps, part{id: s.Name, docs: []*ast.CommentGroup{d.Doc, s.Doc, s.Comment}, nodes: []ast.Node{s}})
				if it, ok := s.Type.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							ps = append(ps, part{id: id, docs: []*ast.CommentGroup{m.Doc, m.Comment}})
						}
					}
				}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					ps = append(ps, part{id: id, docs: []*ast.CommentGroup{d.Doc, s.Doc, s.Comment}, nodes: []ast.Node{s}})
				}
			}
		}
	}
	return ps
}

// checked is one type-checked package: its directory, its non-test
// files and the objects their identifiers define and use.
type checked struct {
	dir   string
	files []*ast.File
	info  *types.Info
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// load type-checks the non-test files of every package the root and
// bench/ modules build, each once, in `go list -deps` order so that a
// package's imports are checked before it. The standard library comes
// from the compiler's export data, which `go list -export` names.
func load(root string, fset *token.FileSet) ([]checked, error) {
	export := map[string]string{} // standard package -> export data file
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	})
	byPath := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := byPath[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	var pkgs []checked
	for _, module := range []string{".", "bench"} {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
		cmd.Dir, cmd.Stderr = filepath.Join(root, module), os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %w", cmd.Dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p struct {
				ImportPath, Dir, Export string
				GoFiles                 []string
				Standard                bool
			}
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			if p.Standard {
				export[p.ImportPath] = p.Export
			}
			if p.Standard || byPath[p.ImportPath] != nil {
				continue
			}
			c := checked{dir: p.Dir, info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}}
			for _, name := range p.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
				if err != nil {
					return nil, err
				}
				c.files = append(c.files, f)
			}
			if byPath[p.ImportPath], err = conf.Check(p.ImportPath, fset, c.files, c.info); err != nil {
				return nil, err
			}
			pkgs = append(pkgs, c)
		}
	}
	return pkgs, nil
}

// origin is the declared object behind a use: a method of an
// instantiated generic type resolves to its generic declaration.
func origin(o types.Object) types.Object {
	if f, ok := o.(*types.Func); ok {
		return f.Origin()
	}
	return o
}

// deadExports reports each exported func, method, interface method,
// type, const or var declared in a package under root/internal that no
// non-test file of the root or bench/ module reads outside its own
// declaration, and each keepDirective that gives no reason. Names
// resolve through the type checker; a method also counts as read when
// it implements a read method of an interface its type satisfies.
// Declared names and a method's receiver are not reads.
func deadExports(root string) ([]string, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs, err := load(abs, fset)
	if err != nil {
		return nil, err
	}
	type export struct {
		obj types.Object
		pos string
	}
	var exports []export
	var bad []string
	read := map[types.Object]bool{}
	for _, p := range pkgs {
		rel, _ := filepath.Rel(abs, p.dir)
		internal := strings.HasPrefix(filepath.ToSlash(rel)+"/", "internal/")
		for _, f := range p.files {
			for _, decl := range f.Decls {
				for _, pt := range parts(decl) {
					own := p.info.Defs[pt.id]
					if internal && pt.id.IsExported() {
						pos := fset.Position(pt.id.Pos())
						file, _ := filepath.Rel(abs, pos.Filename)
						at := fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line)
						if reason, ok := kept(pt.docs); !ok {
							exports = append(exports, export{own, at})
						} else if reason == "" {
							bad = append(bad, fmt.Sprintf("%s: %s on %s gives no reason", at, keepDirective, pt.id.Name))
						} else {
							read[own] = true // a kept interface method keeps its implementations
						}
					}
					for _, n := range pt.nodes {
						ast.Inspect(n, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								if o := p.info.Uses[id]; o != nil && origin(o) != own {
									read[origin(o)] = true
								}
							}
							return true
						})
					}
				}
			}
		}
	}
	ifaces := map[string][]*types.Interface{} // read interface methods by name
	for o := range read {
		if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			ifaces[o.Name()] = append(ifaces[o.Name()], sig.Recv().Type().Underlying().(*types.Interface))
		}
	}
	for _, e := range exports {
		if !read[e.obj] && !implementsRead(e.obj, ifaces) {
			bad = append(bad, fmt.Sprintf("%s: exported %s is read by no non-test file", e.pos, e.obj.Name()))
		}
	}
	slices.Sort(bad)
	return bad, nil
}

// implementsRead reports whether o is a method that the standard
// library calls, or a concrete method whose type implements an
// interface with a read method of the same name.
func implementsRead(o types.Object, ifaces map[string][]*types.Interface) bool {
	sig, ok := o.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if stdMethods[o.Name()] {
		return true
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return !types.IsInterface(recv) && slices.ContainsFunc(ifaces[o.Name()], func(it *types.Interface) bool {
		return types.Implements(types.NewPointer(recv), it)
	})
}

// kept reports the reason a keepDirective in docs gives, and whether
// there is one.
func kept(docs []*ast.CommentGroup) (reason string, ok bool) {
	for _, g := range docs {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if rest, found := strings.CutPrefix(c.Text, keepDirective); found {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}
