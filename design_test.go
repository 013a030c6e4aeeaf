package vodplace

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"vodplace/internal/experiments"
)

// goDecls is every name the module's Go sources declare, bench/ included:
// top-level functions, types, constants and variables per package, and the
// fields and methods of every named type.
type goDecls struct {
	pkgs     map[string]map[string]bool // package name -> its top-level names and its types' members
	members  map[string]map[string]bool // type name -> field and method names
	pkgMems  map[string]map[string]bool // "pkg.Type" -> field and method names
	all      map[string]bool            // every declared name, members included
	structs  map[string]*ast.StructType // "pkg.Type" -> its struct, non-test files only
	comments []fileText                 // each file's comment text, in walk order
	settings []fileNames                // each file's set fields, in walk order
	knobs    []knobStruct               // internal/'s *Config, *Options and *Opts structs
	half     halfSites                  // non-test comparisons of a .V with 0.5
	types    typeTables                 // what setNames resolves a receiver's type from
	files    []parsedFile               // every parsed file, in walk order
	fset     *token.FileSet             // the files' positions
}

// parsedFile is one file's syntax tree with its path and scope.
type parsedFile struct {
	path string
	f    *ast.File
	fs   fileScope
}

// typeRef is a type as setNames resolves it: a named type as "pkg.Name",
// pointers dropped, or a slice, array or map by its element.
type typeRef struct {
	name string
	elem *typeRef
}

// typeTables is the module's declarations setNames reads types from, every
// file's included: each struct's field types, each function's and method's
// first result type ("pkg.Func", "pkg.Type.Method") and each package-level
// variable's type.
type typeTables struct {
	fields  map[string]map[string]*typeRef
	results map[string]*typeRef
	vars    map[string]*typeRef
}

// fileScope is what a file's type expressions are read in: its package and
// its imports by local name.
type fileScope struct {
	pkg     string
	imports map[string]string
}

// typeOf reads the type expression e as written in the file.
func (fs fileScope) typeOf(e ast.Expr) *typeRef {
	switch e := e.(type) {
	case *ast.Ident:
		return &typeRef{name: fs.pkg + "." + e.Name}
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && fs.imports[x.Name] != "" {
			return &typeRef{name: fs.imports[x.Name] + "." + e.Sel.Name}
		}
	case *ast.StarExpr:
		return fs.typeOf(e.X)
	case *ast.ParenExpr:
		return fs.typeOf(e.X)
	case *ast.IndexExpr:
		return fs.typeOf(e.X)
	case *ast.ArrayType:
		return &typeRef{elem: fs.typeOf(e.Elt)}
	case *ast.MapType:
		return &typeRef{elem: fs.typeOf(e.Value)}
	}
	return nil
}

// collect adds f's struct fields, function results and package-level
// variables to the tables.
func (tt typeTables) collect(f *ast.File, fs fileScope) {
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Type.Results == nil || len(decl.Type.Results.List) == 0 {
				continue
			}
			key := fs.pkg + "." + decl.Name.Name
			if decl.Recv != nil {
				recv := fs.typeOf(decl.Recv.List[0].Type)
				if recv == nil {
					continue
				}
				key = recv.name + "." + decl.Name.Name
			}
			tt.results[key] = fs.typeOf(decl.Type.Results.List[0].Type)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					st, ok := spec.Type.(*ast.StructType)
					if !ok {
						continue
					}
					fields := map[string]*typeRef{}
					for _, fl := range st.Fields.List {
						for _, n := range fl.Names {
							fields[n.Name] = fs.typeOf(fl.Type)
						}
					}
					tt.fields[fs.pkg+"."+spec.Name.Name] = fields
				case *ast.ValueSpec:
					for i, n := range spec.Names {
						if spec.Type != nil {
							tt.vars[fs.pkg+"."+n.Name] = fs.typeOf(spec.Type)
						} else if i < len(spec.Values) {
							tt.vars[fs.pkg+"."+n.Name] = (&resolver{tt: tt, fs: fs}).exprType(spec.Values[i])
						}
					}
				}
			}
		}
	}
}

// resolver types the expressions of one function body, in source order:
// scope holds each local name's type as last declared, so block scoping is
// approximated by declaration order.
type resolver struct {
	tt    typeTables
	fs    fileScope
	scope map[string]*typeRef
}

func (r *resolver) declare(name string, t *typeRef) {
	if r.scope != nil && name != "_" {
		r.scope[name] = t
	}
}

func (r *resolver) declareFields(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		for _, n := range f.Names {
			r.declare(n.Name, r.fs.typeOf(f.Type))
		}
	}
}

// exprType returns e's type, or nil where the tables cannot say.
func (r *resolver) exprType(e ast.Expr) *typeRef {
	switch e := e.(type) {
	case *ast.Ident:
		if t, ok := r.scope[e.Name]; ok {
			return t
		}
		return r.tt.vars[r.fs.pkg+"."+e.Name]
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && r.fs.imports[x.Name] != "" && r.scope[x.Name] == nil {
			return r.tt.vars[r.fs.imports[x.Name]+"."+e.Sel.Name]
		}
		if t := r.exprType(e.X); t != nil && t.name != "" {
			return r.tt.fields[t.name][e.Sel.Name]
		}
	case *ast.CompositeLit:
		return r.fs.typeOf(e.Type)
	case *ast.UnaryExpr:
		return r.exprType(e.X)
	case *ast.StarExpr:
		return r.exprType(e.X)
	case *ast.ParenExpr:
		return r.exprType(e.X)
	case *ast.SliceExpr:
		return r.exprType(e.X)
	case *ast.TypeAssertExpr:
		return r.fs.typeOf(e.Type)
	case *ast.IndexExpr:
		if t := r.exprType(e.X); t != nil {
			return t.elem
		}
	case *ast.CallExpr:
		return r.callType(e)
	}
	return nil
}

// callType is the first result type of the call, or the type a conversion,
// new or append yields.
func (r *resolver) callType(c *ast.CallExpr) *typeRef {
	fun := c.Fun
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ix.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		switch {
		case fun.Name == "new" && len(c.Args) == 1:
			return r.fs.typeOf(c.Args[0])
		case fun.Name == "append" && len(c.Args) > 0:
			return r.exprType(c.Args[0])
		}
		key := r.fs.pkg + "." + fun.Name
		if t, ok := r.tt.results[key]; ok {
			return t
		}
		if _, ok := r.tt.fields[key]; ok {
			return &typeRef{name: key}
		}
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok && r.fs.imports[x.Name] != "" && r.scope[x.Name] == nil {
			key := r.fs.imports[x.Name] + "." + fun.Sel.Name
			if t, ok := r.tt.results[key]; ok {
				return t
			}
			if _, ok := r.tt.fields[key]; ok {
				return &typeRef{name: key}
			}
			return nil
		}
		if t := r.exprType(fun.X); t != nil && t.name != "" {
			return r.tt.results[t.name+"."+fun.Sel.Name]
		}
	}
	return nil
}

// declareAssign records the names a := statement or a var declaration
// introduces: pairwise with the values, or the first name from a lone value
// (a call's first result, a map read's or type assertion's value).
func (r *resolver) declareAssign(names []ast.Expr, values []ast.Expr) {
	for i, n := range names {
		id, ok := n.(*ast.Ident)
		if !ok {
			continue
		}
		switch {
		case len(values) == len(names):
			r.declare(id.Name, r.exprType(values[i]))
		case len(values) == 1 && i == 0:
			r.declare(id.Name, r.exprType(values[0]))
		default:
			r.declare(id.Name, nil)
		}
	}
}

// halfSites records where non-test Go spells the y ≥ ½ open threshold
// itself: each comparison of a .V selector with the literal 0.5, each
// constant declared as 0.5 ("pkg.name" -> its position) and the "pkg.name"
// identifiers some .V is compared with.
type halfSites struct {
	literals []string
	consts   map[string]string
	compared map[string]bool
}

type fileText struct{ path, text string }

// fileNames is what a file sets, as "pkg.Type.Field": the keys of its
// composite literals and the fields its assignments write to.
type fileNames struct {
	path string
	sets map[string]bool
}

// knobStruct is an exported struct of internal/ whose name ends in Config,
// Options or Opts, with its package and the file that declares it.
type knobStruct struct {
	path, pkg, name string
	st              *ast.StructType
}

var knobName = regexp.MustCompile(`^([A-Z][A-Za-z0-9]*)?(Config|Options|Opts)$`)

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

// parseModule walks the repository and collects its declarations, its
// comments and the names each file sets. Only the syntax is read, so the
// walk needs no build and no type-checking.
func parseModule(t *testing.T) *goDecls {
	t.Helper()
	d := &goDecls{
		pkgs:    map[string]map[string]bool{},
		members: map[string]map[string]bool{},
		pkgMems: map[string]map[string]bool{},
		all:     map[string]bool{},
		structs: map[string]*ast.StructType{},
		half:    halfSites{consts: map[string]string{}, compared: map[string]bool{}},
		types:   typeTables{fields: map[string]map[string]*typeRef{}, results: map[string]*typeRef{}, vars: map[string]*typeRef{}},
	}
	var files []parsedFile
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return err
		}
		var text strings.Builder
		for _, c := range f.Comments {
			text.WriteString(c.Text())
		}
		d.comments = append(d.comments, fileText{path, text.String()})
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		fs := fileScope{pkg: pkg, imports: map[string]string{}}
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			local := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			fs.imports[local] = p[strings.LastIndex(p, "/")+1:]
		}
		d.types.collect(f, fs)
		files = append(files, parsedFile{path, f, fs})
		if !strings.HasSuffix(path, "_test.go") {
			d.half.collect(fset, f, pkg)
		}
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
						if st, ok := spec.Type.(*ast.StructType); ok && !strings.HasSuffix(path, "_test.go") {
							d.structs[pkg+"."+spec.Name.Name] = st
							if strings.HasPrefix(filepath.ToSlash(path), "internal/") && knobName.MatchString(spec.Name.Name) {
								d.knobs = append(d.knobs, knobStruct{path, pkg, spec.Name.Name, st})
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
	for _, pf := range files {
		d.settings = append(d.settings, setNames(pf.f, pf.path, pf.fs, d.types))
	}
	d.files, d.fset = files, fset
	return d
}

// setNames collects what f sets: every identifier key of a composite
// literal, under the literal's type, and every field that is the target of
// an assignment or of an increment or decrement, under the type its receiver
// resolves to in the tables (a target whose receiver does not resolve sets
// nothing). A literal that omits its type, as the elements of []T{{F: 1}}
// do, has the element type of the literal around it.
func setNames(f *ast.File, path string, fs fileScope, tt typeTables) fileNames {
	fn := fileNames{path, map[string]bool{}}
	elided := map[*ast.CompositeLit]ast.Expr{} // literal -> the type it omits
	for _, decl := range f.Decls {
		r := &resolver{tt: tt, fs: fs, scope: map[string]*typeRef{}}
		target := func(e ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if t := r.exprType(sel.X); t != nil && t.name != "" {
					fn.sets[t.name+"."+sel.Sel.Name] = true
				}
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				r.declareFields(n.Recv)
				r.declareFields(n.Type.Params)
				r.declareFields(n.Type.Results)
			case *ast.FuncLit:
				r.declareFields(n.Type.Params)
				r.declareFields(n.Type.Results)
			case *ast.ValueSpec:
				names := make([]ast.Expr, len(n.Names))
				for i, id := range n.Names {
					names[i] = id
				}
				if n.Type != nil {
					for _, id := range n.Names {
						r.declare(id.Name, fs.typeOf(n.Type))
					}
				} else {
					r.declareAssign(names, n.Values)
				}
			case *ast.RangeStmt:
				if id, ok := n.Value.(*ast.Ident); ok && n.Tok == token.DEFINE {
					if t := r.exprType(n.X); t != nil {
						r.declare(id.Name, t.elem)
					}
				}
			case *ast.CompositeLit:
				typ := n.Type
				if typ == nil {
					typ = elided[n]
				}
				var elem ast.Expr
				switch t := typ.(type) {
				case *ast.ArrayType:
					elem = t.Elt
				case *ast.MapType:
					elem = t.Value
				}
				var name string
				if t := fs.typeOf(typ); t != nil {
					name = t.name
				}
				for _, elt := range n.Elts {
					v := elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && name != "" {
							fn.sets[name+"."+id.Name] = true
						}
						v = kv.Value
					}
					if lit, ok := v.(*ast.CompositeLit); ok && lit.Type == nil {
						elided[lit] = elem
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
				if n.Tok == token.DEFINE {
					r.declareAssign(n.Lhs, n.Rhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			}
			return true
		})
	}
	return fn
}

func (h *halfSites) collect(fset *token.FileSet, f *ast.File, pkg string) {
	isHalf := func(e ast.Expr) bool {
		lit, ok := e.(*ast.BasicLit)
		return ok && lit.Kind == token.FLOAT && lit.Value == "0.5"
	}
	isV := func(e ast.Expr) bool {
		sel, ok := e.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "V"
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GenDecl:
			if n.Tok != token.CONST {
				return true
			}
			for _, spec := range n.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if i < len(vs.Values) && isHalf(vs.Values[i]) {
						h.consts[pkg+"."+name.Name] = fset.Position(name.Pos()).String()
					}
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			default:
				return true
			}
			for _, pair := range [][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
				if !isV(pair[0]) {
					continue
				}
				if isHalf(pair[1]) {
					h.literals = append(h.literals, fset.Position(n.Pos()).String())
				}
				if id, ok := pair[1].(*ast.Ident); ok {
					h.compared[pkg+"."+id.Name] = true
				}
			}
		}
		return true
	})
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

// designSections splits DESIGN.md, fenced blocks removed, at its "## "
// headings. The text before the first heading is the section named "".
func designSections(t *testing.T) (names []string, bodies []string) {
	t.Helper()
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	names, bodies = []string{""}, []string{""}
	for _, line := range strings.Split(fencedBlock.ReplaceAllString(string(doc), ""), "\n") {
		if heading, ok := strings.CutPrefix(line, "## "); ok {
			names, bodies = append(names, heading), append(bodies, "")
			continue
		}
		bodies[len(bodies)-1] += line + "\n"
	}
	return names, bodies
}

// liveFields lists the exported fields of a struct, except those whose doc
// comment starts "Deprecated:".
func liveFields(st *ast.StructType) []string {
	var out []string
	for _, f := range st.Fields.List {
		if f.Doc != nil && strings.HasPrefix(f.Doc.Text(), "Deprecated:") {
			continue
		}
		for _, n := range f.Names {
			if n.IsExported() {
				out = append(out, n.Name)
			}
		}
	}
	return out
}

// jsonKeys lists a struct's JSON keys, a nested struct's as "outer.inner"
// after the outer key itself.
func jsonKeys(st *ast.StructType, prefix string) []string {
	var out []string
	for _, f := range st.Fields.List {
		if f.Tag == nil {
			continue
		}
		tag, err := strconv.Unquote(f.Tag.Value)
		if err != nil {
			continue
		}
		key, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
		if key == "" || key == "-" {
			continue
		}
		out = append(out, prefix+key)
		if inner, ok := f.Type.(*ast.StructType); ok {
			out = append(out, jsonKeys(inner, prefix+key+".")...)
		}
	}
	return out
}

var (
	surfaceName = regexp.MustCompile(`^(?:epf\.)?(Options|Stats)\.([A-Z][A-Za-z0-9_]*)$`)
	designCite  = regexp.MustCompile(`DESIGN(?:\.md)?\s+§\d+(?:(?:\s*,\s*|\s+and\s+)§\d+)*`)
	sectionNum  = regexp.MustCompile(`§(\d+)`)
	numbered    = regexp.MustCompile(`^(\d+)\. `)
)

// TestDesignCoversSurface holds DESIGN.md to the public surface it
// specifies: every live field of epf.Options and epf.Stats has exactly one
// home section, the "## " section that names it backticked as Options.X or
// Stats.X (optionally epf.-prefixed); every JSON key of the /status
// response appears backticked; and every "DESIGN.md §N" cited in a Go
// comment, README.md or EXPERIMENTS.md names an existing "## N." heading.
func TestDesignCoversSurface(t *testing.T) {
	d := parseModule(t)
	names, bodies := designSections(t)

	homes := map[string][]string{} // "Options.X" -> the sections naming it
	spans := map[string]bool{}     // every backticked span in DESIGN.md
	for i, body := range bodies {
		seen := map[string]bool{}
		for _, m := range codeSpan.FindAllStringSubmatch(body, -1) {
			spans[m[1]] = true
			if s := surfaceName.FindStringSubmatch(m[1]); s != nil && !seen[s[1]+"."+s[2]] {
				seen[s[1]+"."+s[2]] = true
				homes[s[1]+"."+s[2]] = append(homes[s[1]+"."+s[2]], names[i])
			}
		}
	}
	for _, typ := range []string{"Options", "Stats"} {
		st := d.structs["epf."+typ]
		if st == nil {
			t.Fatalf("no struct epf.%s in the module", typ)
		}
		for _, field := range liveFields(st) {
			switch h := homes[typ+"."+field]; len(h) {
			case 0:
				t.Errorf("DESIGN.md gives `%s.%s` no home: no ## section names it", typ, field)
			case 1:
			default:
				t.Errorf("DESIGN.md names `%s.%s` in %d sections, want one: %q", typ, field, len(h), h)
			}
		}
	}

	st := d.structs["serve.statusJSON"]
	if st == nil {
		t.Fatal("no struct serve.statusJSON in the module")
	}
	for _, key := range jsonKeys(st, "") {
		if !spans[key] {
			t.Errorf("DESIGN.md never names the /status key `%s`", key)
		}
	}

	headings := map[string]bool{}
	for _, name := range names {
		if m := numbered.FindStringSubmatch(name); m != nil {
			headings[m[1]] = true
		}
	}
	cited := func(where, text string) {
		for _, cite := range designCite.FindAllString(text, -1) {
			for _, n := range sectionNum.FindAllStringSubmatch(cite, -1) {
				if !headings[n[1]] {
					t.Errorf("%s cites DESIGN.md §%s, which has no \"## %s.\" heading", where, n[1], n[1])
				}
			}
		}
	}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cited(doc, string(text))
	}
	for _, f := range d.comments {
		cited(f.path+" (comment)", f.text)
	}
}

var (
	goRunDir  = regexp.MustCompile(`go run \./([\w/-]+)`)
	vodexpExp = regexp.MustCompile(`vodexp -exp ([\w-]+)`)
)

// TestReadmeCommandsResolve holds README.md's commands to the tree: every
// "go run ./<dir>" names a directory with a main package, and every
// "vodexp -exp <id>" names an experiment that experiments.Lookup knows, or
// "all".
func TestReadmeCommandsResolve(t *testing.T) {
	doc, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range goRunDir.FindAllStringSubmatch(string(doc), -1) {
		if !hasMain(m[1]) {
			t.Errorf("README.md runs `go run ./%s`, but %s holds no main package", m[1], m[1])
		}
	}
	for _, m := range vodexpExp.FindAllStringSubmatch(string(doc), -1) {
		if _, ok := experiments.Lookup(m[1]); !ok && m[1] != "all" {
			t.Errorf("README.md runs `vodexp -exp %s`, an experiment vodexp does not know", m[1])
		}
	}
}

// hasMain reports whether dir holds a non-test Go file of package main.
func hasMain(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.PackageClauseOnly)
		if err == nil && f.Name.Name == "main" {
			return true
		}
	}
	return false
}

// TestConfigFieldsHaveCallers holds every knob to a caller: each field of an
// exported *Config, *Options or *Opts struct in internal/ must be set — as a
// key of a literal of that struct's type or as the target of an assignment
// whose receiver resolves to that type — by some Go file other than the one
// declaring it, bench/ and tests included. A field nothing sets is
// a default that should be a constant.
func TestConfigFieldsHaveCallers(t *testing.T) {
	d := parseModule(t)
	for _, k := range d.knobs {
		for _, f := range k.st.Fields.List {
			for _, n := range f.Names {
				set := false
				for _, fn := range d.settings {
					if fn.path != k.path && fn.sets[k.pkg+"."+k.name+"."+n.Name] {
						set = true
						break
					}
				}
				if !set {
					t.Errorf("%s: no other file sets %s.%s", k.path, k.name, n.Name)
				}
			}
		}
	}
}

// TestOpenThresholdHasOneHome holds the y ≥ ½ "holds a copy" rule to one
// home, mip.OpenY: no non-test Go compares a .V selector with the literal
// 0.5, and no package but mip declares its own 0.5 constant to compare a .V
// with.
func TestOpenThresholdHasOneHome(t *testing.T) {
	d := parseModule(t)
	sites := append([]string(nil), d.half.literals...)
	for name, pos := range d.half.consts {
		if d.half.compared[name] && !strings.HasPrefix(name, "mip.") {
			sites = append(sites, pos+" (const "+name+")")
		}
	}
	sort.Strings(sites)
	for _, s := range sites {
		t.Errorf("%s spells the y ≥ ½ open threshold itself; compare with mip.OpenY", s)
	}
}

// The solver's Stats are observability only: nothing in non-test
// internal/epf Go may read a field of a solver's stats (s.stats.F) into a
// condition, a return, a call argument or an assignment to anything but
// stats itself, directly or through a local variable set from such a read.
// Reads that feed only stats assignments, stats methods and the recorder's
// Record* calls (telemetry) are allowed; so is handing the whole s.stats to
// a Result.
func TestSolverDoesNotReadStats(t *testing.T) {
	d := parseModule(t)
	var sites []string
	for _, pf := range d.files {
		if filepath.ToSlash(filepath.Dir(pf.path)) != "internal/epf" || strings.HasSuffix(pf.path, "_test.go") {
			continue
		}
		for _, decl := range pf.f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				sites = append(sites, statsSteering(d.fset, fn)...)
			}
		}
	}
	for _, site := range sites {
		t.Errorf("%s: the solver steers on its Stats", site)
	}
}

// statsField reports whether e is a field of a stats value, x.stats.F.
func statsField(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	inner, ok := sel.X.(*ast.SelectorExpr)
	return ok && inner.Sel.Name == "stats"
}

// inStats reports whether e names stats or a part of it: x.stats, or a
// field, element or method of one.
func inStats(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name == "stats" {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return false
		}
	}
}

// statsSteering lists, as "path:line: what", the places in fn where a stats
// field's value, read directly or through a local set from one, reaches a
// condition, a return, a non-telemetry call argument or an assignment to
// anything but stats. Statements are visited in source order, so a local is
// tainted by the assignments above its use.
func statsSteering(fset *token.FileSet, fn *ast.FuncDecl) []string {
	tainted := map[string]bool{}
	reads := func(e ast.Node) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				found = found || statsField(n)
			case *ast.Ident:
				found = found || tainted[n.Name]
			}
			return !found
		})
		return found
	}
	var sites []string
	flag := func(n ast.Node, what string) {
		sites = append(sites, fmt.Sprintf("%s: %s in %s", fset.Position(n.Pos()), what, fn.Name.Name))
	}
	call := func(c *ast.CallExpr) {
		if sel, ok := c.Fun.(*ast.SelectorExpr); ok && (inStats(sel.X) || strings.HasPrefix(sel.Sel.Name, "Record")) {
			return
		}
		for _, a := range c.Args {
			if reads(a) {
				flag(a, "a stats read passed to a call")
			}
		}
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				from := n.Rhs
				if len(n.Rhs) == len(n.Lhs) {
					from = n.Rhs[i : i+1]
				}
				if inStats(lhs) || !slices.ContainsFunc(from, func(e ast.Expr) bool { return reads(e) }) {
					continue
				}
				if id, ok := lhs.(*ast.Ident); ok {
					tainted[id.Name] = true
				} else {
					flag(lhs, "a stats read assigned")
				}
			}
		case *ast.ValueSpec:
			if slices.ContainsFunc(n.Values, func(e ast.Expr) bool { return reads(e) }) {
				for _, id := range n.Names {
					tainted[id.Name] = true
				}
			}
		case *ast.RangeStmt:
			if reads(n.X) {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						tainted[id.Name] = true
					}
				}
			}
		case *ast.IfStmt:
			if reads(n.Cond) {
				flag(n.Cond, "a stats read in a condition")
			}
		case *ast.ForStmt:
			if n.Cond != nil && reads(n.Cond) {
				flag(n.Cond, "a stats read in a condition")
			}
		case *ast.SwitchStmt:
			if n.Tag != nil && reads(n.Tag) {
				flag(n.Tag, "a stats read in a condition")
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if reads(e) {
					flag(e, "a stats read in a condition")
				}
			}
		case *ast.ReturnStmt:
			for _, e := range n.Results {
				if reads(e) {
					flag(e, "a stats read returned")
				}
			}
		case *ast.ExprStmt:
			if c, ok := n.X.(*ast.CallExpr); ok {
				call(c)
			}
		case *ast.DeferStmt:
			call(n.Call)
		}
		return true
	})
	return sites
}
