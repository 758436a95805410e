package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"
)

// TestPaperMap parses the paper-to-code map in doc.go and fails on any
// identifier that no longer exists in the package the map names.
func TestPaperMap(t *testing.T) {
	fset := token.NewFileSet()
	doc, err := parser.ParseFile(fset, "doc.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{} // package path → declared names
	refs := 0
	for _, line := range strings.Split(doc.Doc.Text(), "\n") {
		_, right, ok := strings.Cut(line, "→")
		if !ok {
			continue
		}
		for _, ref := range strings.Split(right, ",") {
			ref = strings.TrimSpace(ref)
			slash := strings.LastIndex(ref, "/")
			dot := strings.Index(ref[slash+1:], ".")
			if dot < 0 {
				t.Errorf("map entry %q: want package path, then identifier", ref)
				continue
			}
			pkg, name := ref[:slash+1+dot], ref[slash+2+dot:]
			if decls[pkg] == nil {
				decls[pkg] = declared(t, fset, pkg)
			}
			if !decls[pkg][name] {
				t.Errorf("map entry %s: %s is not declared in %s", ref, name, pkg)
			}
			refs++
		}
	}
	if refs == 0 {
		t.Fatal("doc.go holds no paper-to-code map")
	}
}

// declared returns the package-level names of the non-test files in dir,
// with methods, an interface's included, as Type.Method.
func declared(t *testing.T, fset *token.FileSet, dir string) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[d.Name.Name] = true
						continue
					}
					typ := d.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						names[id.Name+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							names[s.Name.Name] = true
							if iface, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range iface.Methods.List {
									for _, n := range m.Names {
										names[s.Name.Name+"."+n.Name] = true
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return names
}
