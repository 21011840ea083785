package repro

import (
	"fmt"
	"go/ast"
	"go/build"
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

// testOnlyAllowed lists the exported names of repro/clam and under
// internal/ that only tests use and that stay anyway, keyed
// "importpath.Name" for a top-level name and "importpath.Type.Method" for
// a method, each with its reason.
var testOnlyAllowed = map[string]string{
	"repro/clam.FIFO":          policyReason,
	"repro/clam.LRU":           policyReason,
	"repro/clam.UpdateBased":   policyReason,
	"repro/clam.PriorityBased": policyReason,
	"repro/clam.WithPolicy":    policyReason,
	"repro/clam.WithRetain":    "the retain predicate of PriorityBased eviction, which the fault oracle and the priority tests run",
	"repro/clam.WithSeed":      "the oracles and pinned-stream tests vary the hash seed",
	"repro/clam.WithValueLog":  "the value-log wrap oracles and the pinned byte-op tests size the log below the index",

	"repro/clam.router.DeleteU64":      "the paper's lazy delete (§5.1.1) on the U64 fast path, which the differential and fault oracles run against per-key twins",
	"repro/clam.router.DeleteBatchU64": "the paper's lazy delete (§5.1.1) on the U64 fast path, batched; the differential and fault oracles run it",
	"repro/clam.router.DeleteBatch":    "the depart operation of the planned churn workload (register, resolve, depart), which the differential and fault oracles run",

	"repro/internal/core.BufferHash.Delete": "the per-key delete beside Lookup and Insert, a one-key DeleteBatch; TestSerialOpsPinned and the core oracles drive per-key twins through it",
	"repro/internal/bdb.HashIndex.Delete":   "the BDB baseline's in-place delete, the third operation of its hash-index interface, which the bdb tests check against a map",
	"repro/internal/ssd.SSD.SetFault":       faultReason,
	"repro/internal/disk.Disk.SetFault":     faultReason,
	"repro/internal/metrics.Summary.String": "fmt prints clam.Stats' latency fields through it, and TestSingleStorePinned digests that %+v form",
}

const (
	policyReason = "the §5.1.2 eviction policies, which the differential, fault and pinned tests run; a churn workload is their planned non-test caller"
	faultReason  = "the device fault-injection hook (storage.FaultFunc) the fault oracles arm"
)

// checkedPkg is one type-checked directory of non-test files.
type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// sourceImporter type-checks every package of the repository (clambench/
// included) from its non-test files, each once, so that all of them share
// one set of objects; standard-library imports go to the source importer.
type sourceImporter struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*checkedPkg // by import path
	order []string               // import paths in check order
}

func (im *sourceImporter) Import(p string) (*types.Package, error) {
	if p != "repro" && !strings.HasPrefix(p, "repro/") {
		return im.std.Import(p)
	}
	c, err := im.check(p)
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}

// check type-checks the package at import path p, whose directory is p
// relative to the repository root.
func (im *sourceImporter) check(p string) (*checkedPkg, error) {
	if c, ok := im.pkgs[p]; ok {
		if c == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return c, nil
	}
	im.pkgs[p] = nil
	dir := filepath.FromSlash("." + strings.TrimPrefix(p, "repro"))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	c := &checkedPkg{info: &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: im}
	if c.pkg, err = conf.Check(p, im.fset, c.files, c.info); err != nil {
		return nil, err
	}
	im.pkgs[p] = c
	im.order = append(im.order, p)
	return c, nil
}

// exportedDecl is one exported declaration of a non-test file: a
// top-level name, or a method.
type exportedDecl struct {
	at    token.Position
	spans [][2]token.Pos // its own declaration, and for a type its methods
}

// TestNoTestOnlyExports fails on any exported top-level func, type, var or
// const, and on any exported method, of the public clam package or under
// internal/ that no non-test Go file of the repository (clambench/
// included) uses outside its own declaration. Uses are resolved with
// go/types. A top-level name is used where an identifier refers to it. A
// method is used where a non-test file selects it on its own type (or on
// a type embedding it), or where non-test code calls an interface method
// the method's type implements. Production code that only tests run is
// deleted, or named in testOnlyAllowed with a reason.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	im := &sourceImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*checkedPkg{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(p, 0); err != nil {
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			return err
		}
		_, err = im.check(path.Join("repro", filepath.ToSlash(p)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	inScope := func(p string) bool { return p == "repro/clam" || strings.HasPrefix(p, "repro/internal/") }
	decls := map[string]*exportedDecl{} // "importpath.Name" or "importpath.Type.Method"
	span := func(n ast.Node) [2]token.Pos { return [2]token.Pos{n.Pos(), n.End()} }
	add := func(key string, id *ast.Ident, node ast.Node) {
		if id.IsExported() {
			decls[key] = &exportedDecl{at: fset.Position(id.Pos()), spans: [][2]token.Pos{span(node)}}
		}
	}
	for _, p := range im.order {
		if !inScope(p) {
			continue
		}
		for _, f := range im.pkgs[p].files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(p+"."+d.Name.Name, d.Name, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(p+"."+s.Name.Name, s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(p+"."+id.Name, id, s)
							}
						}
					}
				}
			}
		}
	}
	// A type's methods are part of its declaration: a receiver, or a
	// method body naming its own type, is not a use. Each exported method
	// is a declaration of its own.
	for _, p := range im.order {
		if !inScope(p) {
			continue
		}
		for _, f := range im.pkgs[p].files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
					continue
				}
				recv := receiverType(fd.Recv.List[0].Type)
				if dc := decls[p+"."+recv]; dc != nil {
					dc.spans = append(dc.spans, span(fd))
				}
				add(p+"."+recv+"."+fd.Name.Name, fd.Name, fd)
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
	type ifaceCall struct {
		iface *types.Interface
		name  string
	}
	var ifaceCalls []ifaceCall
	for _, p := range im.order {
		info := im.pkgs[p].info
		for id, obj := range info.Uses {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				mark(obj.Pkg().Path()+"."+obj.Name(), id.Pos())
			}
		}
		for sel, s := range info.Selections {
			fn, ok := s.Obj().(*types.Func)
			if !ok {
				continue
			}
			if it, ok := s.Recv().Underlying().(*types.Interface); ok {
				ifaceCalls = append(ifaceCalls, ifaceCall{it, fn.Name()})
				continue
			}
			if key := methodKey(fn); key != "" {
				mark(key, sel.Pos())
			}
		}
	}
	// A method implementing an interface method non-test code calls is
	// used through that call.
	for _, p := range im.order {
		if !inScope(p) {
			continue
		}
		scope := im.pkgs[p].pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				key := methodKey(m)
				if used[key] || decls[key] == nil {
					continue
				}
				for _, c := range ifaceCalls {
					if c.name == m.Name() && (types.Implements(named, c.iface) || types.Implements(types.NewPointer(named), c.iface)) {
						used[key] = true
						break
					}
				}
			}
		}
	}

	var unused []string
	for key, dc := range decls {
		if used[key] {
			continue
		}
		if _, ok := testOnlyAllowed[key]; ok {
			continue
		}
		unused = append(unused, dc.at.String()+": "+strings.TrimPrefix(key, "repro/"))
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

// methodKey returns "importpath.Type.Method" for a method of a named type,
// or "" for a function or an interface method.
func methodKey(fn *types.Func) string {
	fn = fn.Origin()
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || fn.Pkg() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return fn.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + fn.Name()
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
