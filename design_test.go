package vodplace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// goDecls is every name the module's Go sources declare, bench/ included:
// top-level functions, types, constants and variables per package, and the
// fields and methods of every named type.
type goDecls struct {
	pkgs    map[string]map[string]bool // package name -> its top-level names and its types' members
	members map[string]map[string]bool // type name -> field and method names
	pkgMems map[string]map[string]bool // "pkg.Type" -> field and method names
	all     map[string]bool            // every declared name, members included
}

// put adds name to the set m[key].
func put(m map[string]map[string]bool, key, name string) {
	if m[key] == nil {
		m[key] = map[string]bool{}
	}
	m[key][name] = true
}

func (d *goDecls) add(pkg, name string) {
	put(d.pkgs, pkg, name)
	d.all[name] = true
	for _, prefix := range []string{"Test", "Benchmark", "Fuzz"} {
		if rest, ok := strings.CutPrefix(name, prefix); ok && rest != "" {
			put(d.pkgs, pkg, rest)
			d.all[rest] = true
		}
	}
}

func (d *goDecls) addMember(pkg, typ, name string) {
	put(d.pkgs, pkg, name)
	put(d.members, typ, name)
	put(d.pkgMems, pkg+"."+typ, name)
	d.all[name] = true
}

// parseModule walks the repository and collects its declarations. Only the
// syntax is read, so the walk needs no build and no type-checking.
func parseModule(t *testing.T) *goDecls {
	t.Helper()
	d := &goDecls{
		pkgs:    map[string]map[string]bool{},
		members: map[string]map[string]bool{},
		pkgMems: map[string]map[string]bool{},
		all:     map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.add(pkg, decl.Name.Name)
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch generic := recv.(type) {
				case *ast.IndexExpr:
					recv = generic.X
				case *ast.IndexListExpr:
					recv = generic.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					d.addMember(pkg, id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.add(pkg, n.Name)
						}
					case *ast.TypeSpec:
						d.add(pkg, spec.Name.Name)
						d.addTypeMembers(pkg, spec.Name.Name, spec.Type)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func (d *goDecls) addTypeMembers(pkg, typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch x := expr.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 { // embedded: the field is named after its type
			t := f.Type
			if s, ok := t.(*ast.StarExpr); ok {
				t = s.X
			}
			switch e := t.(type) {
			case *ast.Ident:
				d.addMember(pkg, typ, e.Name)
			case *ast.SelectorExpr:
				d.addMember(pkg, typ, e.Sel.Name)
			}
			continue
		}
		for _, n := range f.Names {
			d.addMember(pkg, typ, n.Name)
		}
	}
}

// resolve reports whether a backticked DESIGN.md name is declared. pkg.Name
// may name a method of one of the package's types (`facloc.SolveWarmInto`).
// A dotted name that is no Go reference passes: one whose head is neither a
// module package nor a declared type (a receiver variable, a
// standard-library package, a file name), or a package followed by a
// lower-case word (a metric or trace-stream name such as `epf.passes`).
func (d *goDecls) resolve(name string) bool {
	parts := strings.Split(name, ".")
	if len(parts) == 1 {
		return d.all[name]
	}
	head, rest := parts[0], parts[1:]
	if top, ok := d.pkgs[head]; ok && head != "main" {
		switch {
		case !unicode.IsUpper(rune(rest[0][0])):
			return true
		case len(rest) == 2:
			return d.pkgMems[head+"."+rest[0]][rest[1]]
		}
		return top[rest[0]]
	}
	if mem, ok := d.members[head]; ok {
		return mem[rest[0]]
	}
	return true
}

var (
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	goName      = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*){0,2}$`)
	hasUpper    = regexp.MustCompile(`[A-Z]`)
)

// TestDesignNamesExist holds DESIGN.md to the code: every backticked Go name
// in it — pkg.Name, Type.Field or Type.Method, or a bare identifier with an
// uppercase letter — must be declared somewhere in the module's Go sources.
// A trailing "()" is dropped; Test, Benchmark and Fuzz functions also count
// under their name without the prefix.
func TestDesignNamesExist(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	d := parseModule(t)
	text := fencedBlock.ReplaceAllString(string(doc), "")
	seen := map[string]bool{}
	for _, m := range codeSpan.FindAllStringSubmatch(text, -1) {
		name := strings.TrimSuffix(m[1], "()")
		if seen[name] || !goName.MatchString(name) {
			continue
		}
		seen[name] = true
		if !strings.Contains(name, ".") && !hasUpper.MatchString(name) {
			continue
		}
		if !d.resolve(name) {
			t.Errorf("DESIGN.md names `%s`, which no Go source in the module declares", name)
		}
	}
}
