package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists the exported names of repro/clam and under
// internal/ that only tests use and that stay anyway, keyed
// "importpath.Name", each with its reason.
var testOnlyAllowed = map[string]string{
	"repro/clam.FIFO":                   policyReason,
	"repro/clam.LRU":                    policyReason,
	"repro/clam.UpdateBased":            policyReason,
	"repro/clam.PriorityBased":          policyReason,
	"repro/clam.WithPolicy":             policyReason,
	"repro/clam.WithRetain":             "the retain predicate of PriorityBased eviction, which the fault oracle and the priority tests run",
	"repro/clam.WithSeed":               "the oracles and pinned-stream tests vary the hash seed",
	"repro/clam.WithValueLog":           "the value-log wrap oracles and the pinned byte-op tests size the log below the index",
	"repro/internal/wanopt.NewReceiver": "builds the decoding endpoint TestEndToEndReconstruction checks the optimizer's token streams against",
}

const policyReason = "the §5.1.2 eviction policies, which the differential, fault and pinned tests run; a churn workload is their planned non-test caller"

// exportedDecl is one top-level exported declaration of a non-test file.
type exportedDecl struct {
	pkg   string // import path of the declaring package
	name  string
	at    token.Position
	spans [][2]token.Pos // its own declaration, and for a type its methods
}

// TestNoTestOnlyExports fails on any top-level exported func, type, var or
// const of the public clam package or under internal/ that no non-test Go
// file of the repository (clambench/ included) references outside its own
// declaration. A
// reference is a same-package identifier or a pkg.Name selector. Production
// code that only tests run is deleted, or named in testOnlyAllowed with a
// reason.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		pkg string // import path of the file's directory
		f   *ast.File
	}
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, file{path.Join("repro", filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	decls := map[string]*exportedDecl{} // "importpath.Name"
	declIdents := map[*ast.Ident]bool{}
	add := func(pkg string, id *ast.Ident, node ast.Node) {
		if !id.IsExported() {
			return
		}
		declIdents[id] = true
		decls[pkg+"."+id.Name] = &exportedDecl{
			pkg: pkg, name: id.Name, at: fset.Position(id.Pos()),
			spans: [][2]token.Pos{{node.Pos(), node.End()}},
		}
	}
	for _, fl := range files {
		if !strings.HasPrefix(fl.pkg, "repro/internal/") && fl.pkg != "repro/clam" {
			continue
		}
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(fl.pkg, d.Name, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(fl.pkg, s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(fl.pkg, id, s)
						}
					}
				}
			}
		}
	}
	// A type's methods are part of its declaration: a receiver, or a
	// method body naming its own type, is not a use.
	for _, fl := range files {
		for _, d := range fl.f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List) == 1 {
				if dc := decls[fl.pkg+"."+receiverType(fd.Recv.List[0].Type)]; dc != nil {
					dc.spans = append(dc.spans, [2]token.Pos{fd.Pos(), fd.End()})
				}
			}
		}
	}

	used := map[string]bool{}
	mark := func(key string, at token.Pos) {
		dc := decls[key]
		if dc == nil {
			return
		}
		for _, s := range dc.spans {
			if at >= s[0] && at < s[1] {
				return
			}
		}
		used[key] = true
	}
	for _, fl := range files {
		imports := map[string]string{} // local name -> import path
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						mark(p+"."+n.Sel.Name, n.Pos())
						return false
					}
				}
				ast.Inspect(n.X, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && !declIdents[id] {
						mark(fl.pkg+"."+id.Name, id.Pos())
					}
					return true
				})
				return false
			case *ast.Ident:
				if !declIdents[n] {
					mark(fl.pkg+"."+n.Name, n.Pos())
				}
			}
			return true
		})
	}

	var unused []string
	for key, dc := range decls {
		if used[key] {
			continue
		}
		if _, ok := testOnlyAllowed[key]; ok {
			continue
		}
		unused = append(unused, dc.at.String()+": "+path.Base(dc.pkg)+"."+dc.name)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test code uses it", u)
	}
	for key, reason := range testOnlyAllowed {
		if reason == "" {
			t.Errorf("testOnlyAllowed names %s without a reason", key)
		}
		if decls[key] == nil {
			t.Errorf("testOnlyAllowed names %s, which is not declared in clam or under internal/", key)
		} else if used[key] {
			t.Errorf("testOnlyAllowed names %s, which non-test code now uses", key)
		}
	}
}

// receiverType returns the base type name of a method receiver.
func receiverType(e ast.Expr) string {
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
