package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
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
	id     *ast.Ident
	method bool
	docs   []*ast.CommentGroup
	nodes  []ast.Node
}

func parts(d ast.Decl) []part {
	var ps []part
	switch d := d.(type) {
	case *ast.FuncDecl:
		p := part{id: d.Name, method: d.Recv != nil, docs: []*ast.CommentGroup{d.Doc}, nodes: []ast.Node{d.Type}}
		if d.Body != nil {
			p.nodes = append(p.nodes, d.Body)
		}
		ps = append(ps, p)
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ps = append(ps, part{id: s.Name, docs: []*ast.CommentGroup{d.Doc, s.Doc, s.Comment}, nodes: []ast.Node{s}})
			case *ast.ValueSpec:
				for _, id := range s.Names {
					ps = append(ps, part{id: id, docs: []*ast.CommentGroup{d.Doc, s.Doc, s.Comment}, nodes: []ast.Node{s}})
				}
			}
		}
	}
	return ps
}

// deadExports reports each exported name declared under root/internal
// that no non-test .go file under root reads outside its own declaration
// (testdata and dot directories skipped), and each keepDirective that
// gives no reason. Declared names and a method's receiver are not reads.
func deadExports(root string) ([]string, error) {
	type export struct {
		key [2]string // {package directory, name}; a method's has no directory
		pos string
	}
	var exports []export
	var bad []string
	read := map[[2]string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		imports := map[string]string{} // local name -> package directory
		for _, imp := range f.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && strings.HasPrefix(p, repoImportPrefix) {
				dir := strings.TrimPrefix(p, repoImportPrefix)
				local := dir[strings.LastIndex(dir, "/")+1:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imports[local] = dir
			}
		}
		for _, decl := range f.Decls {
			for _, p := range parts(decl) {
				own := [2]string{pkg, p.id.Name}
				if p.method {
					own[0] = ""
				}
				if strings.HasPrefix(pkg, "internal/") && p.id.IsExported() {
					pos := fset.Position(p.id.Pos())
					at := fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)
					if reason, ok := kept(p.docs); !ok {
						exports = append(exports, export{own, at})
					} else if reason == "" {
						bad = append(bad, fmt.Sprintf("%s: %s on %s gives no reason", at, keepDirective, p.id.Name))
					}
				}
				for _, n := range p.nodes {
					inspect(n, pkg, imports, own, read)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, e := range exports {
		if read[e.key] || e.key[0] == "" && stdMethods[e.key[1]] {
			continue
		}
		bad = append(bad, fmt.Sprintf("%s: exported %s is read by no non-test file", e.pos, e.key[1]))
	}
	slices.Sort(bad)
	return bad, nil
}

// inspect marks in read every name n reads, except own.
func inspect(n ast.Node, pkg string, imports map[string]string, own [2]string, read map[[2]string]bool) {
	declared := map[*ast.Ident]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		var key [2]string
		switch n := n.(type) {
		case *ast.Field:
			for _, id := range n.Names {
				declared[id] = true
			}
			return true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declared[id] = true
			}
			return true
		case *ast.TypeSpec:
			declared[n.Name] = true
			return true
		case *ast.SelectorExpr:
			declared[n.Sel] = true
			key = [2]string{"", n.Sel.Name}
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				key[0] = imports[x.Name]
			}
		case *ast.Ident:
			if declared[n] {
				return true
			}
			key = [2]string{pkg, n.Name}
		default:
			return true
		}
		if key != own {
			read[key] = true
		}
		return true
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
