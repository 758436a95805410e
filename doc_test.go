package repro_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"regexp"
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

// TestReadmeNames holds README.md's code spans to the code: a dotted name
// that starts with an exported type of package uncertain must name one of
// its fields or methods (through an alias to its target, and promoted
// through embedding), uncertain.Name must be declared, and a path under
// internal/, cmd/, uncertain/ or examples/ must exist.
func TestReadmeNames(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := importer.ForCompiler(token.NewFileSet(), "source", nil).Import("repro/uncertain")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, span := range codeSpans(string(readme)) {
		for _, word := range strings.Fields(span) {
			path := strings.TrimPrefix(word, "./")
			path = strings.TrimSuffix(path, "/...")
			if !strings.HasPrefix(path, "internal/") && !strings.HasPrefix(path, "cmd/") &&
				!strings.HasPrefix(path, "uncertain/") && !strings.HasPrefix(path, "examples/") {
				continue
			}
			checked++
			if _, err := os.Stat(path); err != nil {
				t.Errorf("README names %s, which does not exist", word)
			}
		}
		for _, m := range dottedName.FindAllStringSubmatch(span, -1) {
			name := m[1]
			parts := strings.Split(name, ".")
			if parts[0] == "uncertain" {
				if pkg.Scope().Lookup(parts[1]) == nil {
					t.Errorf("README names %s: %s is not declared in package uncertain", name, parts[1])
				}
				checked++
				parts = parts[1:]
			}
			typ, ok := pkg.Scope().Lookup(parts[0]).(*types.TypeName)
			if !ok || !typ.Exported() || len(parts) < 2 {
				continue
			}
			checked++
			if obj, _, _ := types.LookupFieldOrMethod(typ.Type(), true, pkg, parts[1]); obj == nil {
				t.Errorf("README names %s: uncertain.%s has no field or method %s", name, parts[0], parts[1])
			}
		}
	}
	if checked == 0 {
		t.Fatal("README.md names nothing this test checks")
	}
}

// dottedName matches a chain of dotted identifiers that no identifier or
// dot precedes, so the tail of pcr.Shape.Translate is not read as
// Shape.Translate.
var dottedName = regexp.MustCompile(`(?:^|[^\w.])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`)

// codeSpans returns the contents of the inline code spans of a markdown
// text, outside its fenced code blocks.
func codeSpans(md string) []string {
	var spans []string
	fenced := false
	var para strings.Builder
	flush := func() {
		parts := strings.Split(para.String(), "`")
		for i := 1; i < len(parts)-1; i += 2 {
			spans = append(spans, parts[i])
		}
		para.Reset()
	}
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			flush()
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		para.WriteString(line + "\n")
	}
	flush()
	return spans
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
