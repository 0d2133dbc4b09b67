// Command deadnames is the type checker's half of make deadcode: it reports
// the exported names and struct fields of the module that nothing uses.
//
// Usage: go run ./scripts/deadnames [dir]   (dir defaults to ".")
//
// It asks go list -json -deps -test for every package of the module in dir,
// tests included, and of the nested module in dir/benchmark if there is one,
// then type-checks all of them and their standard-library dependencies from
// source with go/types (nothing is fetched or compiled). It prints one
// "file:line: ..." line per finding, sorted, and exits 1 if any of them
// fails:
//
//   - an exported package-level name of a non-main package that no other
//     package names, unless a named type of the module that another package
//     uses exposes it (in a signature, an exported field or an exported
//     method). The module's root package is its public API, so its own
//     tests count as other packages there.
//   - a struct field of a package-level type that no non-test code reads.
//     An assignment's left side (x.f += y included), x.f++ and a composite
//     literal's key or position are writes, not reads; &x.f, ==, a map key
//     and an argument of a function without a body (assembly) read, and so
//     does reflect.DeepEqual, as a test's read. encoding/json and
//     encoding/gob read the exported fields of a type passed to them, and
//     of the types those hold; a json-tagged field is read by the codec its
//     tag names. Embedded fields are not judged. A field that only tests
//     read (a counter an invariant test checks, a value a digest pins) is
//     listed, not failed, and so is one the benchmark module names: that
//     module changes on its own.
//
// It also prints the settable-value census, which fails nothing: each
// exported field that no non-test code of the module writes, and each flag
// that neither non-test code nor a workflow sets (as a "-name" string),
// with who does set it: tests, benchmark/, both, or nothing. The workflows
// under .github/workflows count as tests.
//
// Aliases are types of their own here (gotypesalias), so an alias that an
// exported signature names is exposed by it.
//
//go:debug gotypesalias=1
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	dir := "."
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	failed, err := run(dir, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadnames:", err)
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "deadnames: %d name(s) or field(s) nothing uses; delete them, or unexport what only their own package names\n", failed)
		os.Exit(1)
	}
}

// listed is the part of go list's JSON this pass reads.
type listed struct {
	ImportPath, Name, Dir string
	Standard              bool
	GoFiles               []string
	ImportMap             map[string]string
}

// source is what a module file is to the rules: the package that declares
// it (without go list's " [p.test]"; an external test package is another
// package), whether it is a test file, and whether the benchmark module
// holds it.
type source struct {
	pkg         string
	test, bench bool
}

// module is one type-checked variant of a module package: a package and
// its test variant share their non-test files' ASTs, so an object has the
// same position in both.
type module struct {
	main  bool
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type checker struct {
	root, rootPkg string
	fset          *token.FileSet
	list          map[string]*listed
	done          map[string]*types.Package
	mods          []*module
	files         map[string]*ast.File
	srcs          map[*token.File]source
}

func run(dir string, out io.Writer) (int, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return 0, err
	}
	c := &checker{root: root, fset: token.NewFileSet(), list: map[string]*listed{},
		done: map[string]*types.Package{}, files: map[string]*ast.File{}, srcs: map[*token.File]source{}}
	var order []string
	for _, d := range []string{root, filepath.Join(root, "benchmark")} {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err != nil {
			continue
		}
		if order, err = c.goList(d, order); err != nil {
			return 0, err
		}
	}
	for _, id := range order {
		if _, err := c.check(id); err != nil {
			return 0, err
		}
	}
	return c.report(out)
}

func (c *checker) goList(dir string, order []string) ([]string, error) {
	cmd := exec.Command("go", "list", "-e", "-json", "-deps", "-test", "./...")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v", dir, err)
	}
	for dec := json.NewDecoder(bytes.NewReader(b)); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		if p.Dir == c.root && !strings.Contains(p.ImportPath, " ") { // not a test variant
			c.rootPkg = p.ImportPath
		}
		// p.test, the generated test main, declares nothing of the module.
		if _, ok := c.list[p.ImportPath]; !ok && !strings.HasSuffix(p.ImportPath, ".test") {
			c.list[p.ImportPath] = p
			order = append(order, p.ImportPath)
		}
	}
	return order, nil
}

type importer func(path string) (*types.Package, error)

func (f importer) Import(path string) (*types.Package, error) { return f(path) }

// check type-checks one go list package after its imports. Standard-library
// function bodies are skipped: only their declarations are needed.
func (c *checker) check(id string) (*types.Package, error) {
	if id == "unsafe" {
		return types.Unsafe, nil
	}
	if tp, ok := c.done[id]; ok {
		return tp, nil
	}
	p := c.list[id]
	if p == nil {
		return nil, fmt.Errorf("%s is not in go list's output", id)
	}
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := c.parse(p, filepath.Join(p.Dir, name))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var errs []error
	conf := types.Config{
		IgnoreFuncBodies: p.Standard,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		Error:            func(err error) { errs = append(errs, err) },
		Importer: importer(func(path string) (*types.Package, error) {
			if to, ok := p.ImportMap[path]; ok {
				path = to
			}
			return c.check(path)
		}),
	}
	var info *types.Info
	if !p.Standard {
		info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
		}
	}
	tp, _ := conf.Check(strings.Fields(id)[0], c.fset, files, info)
	if len(errs) > 0 && !p.Standard {
		return nil, errs[0]
	}
	c.done[id] = tp
	if !p.Standard {
		c.mods = append(c.mods, &module{main: p.Name == "main", files: files, types: tp, info: info})
	}
	return tp, nil
}

func (c *checker) parse(p *listed, name string) (*ast.File, error) {
	if f, ok := c.files[name]; ok {
		return f, nil
	}
	f, err := parser.ParseFile(c.fset, name, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	c.files[name] = f
	if !p.Standard {
		c.srcs[c.fset.File(f.Pos())] = source{
			pkg:   strings.Fields(p.ImportPath)[0],
			test:  strings.HasSuffix(name, "_test.go"),
			bench: strings.HasPrefix(name, filepath.Join(c.root, "benchmark")+string(filepath.Separator)),
		}
	}
	return f, nil
}

// uses is what the module's code does with one declared object.
type uses struct {
	named, byOther bool // some file names it; a file of another package does
	benchNamed     bool
	read           bool // non-test code reads it, or a codec, == or assembly does
	testRead       bool
	// Who writes it: non-test code of the module, of benchmark/, tests.
	write, benchWrite, testWrite bool
}

// setBy is who sets one flag.
type setBy struct{ code, bench, tests bool }

type walker struct {
	*checker
	uses     map[token.Pos]*uses
	flags    map[string]*setBy    // who sets each flag name
	declared map[token.Pos]string // the flags the module declares
	targets  map[ast.Expr]bool    // the file's assigned selectors: true if also read
	coded    map[coded]bool
}

func (w *walker) of(obj types.Object) *uses {
	if v, ok := obj.(*types.Var); ok {
		obj = v.Origin()
	}
	u := w.uses[obj.Pos()]
	if u == nil {
		u = new(uses)
		w.uses[obj.Pos()] = u
	}
	return u
}

func (w *walker) src(pos token.Pos) (source, bool) {
	s, ok := w.srcs[w.fset.File(pos)]
	return s, ok
}

func (c *checker) report(out io.Writer) (int, error) {
	w := &walker{checker: c, uses: map[token.Pos]*uses{}, flags: map[string]*setBy{},
		declared: map[token.Pos]string{}, coded: map[coded]bool{}}
	for _, m := range c.mods {
		for _, f := range m.files {
			w.walk(m, f)
		}
	}
	if err := w.workflows(); err != nil {
		return 0, err
	}
	type finding struct {
		file string
		line int
		text string
	}
	var lines []finding
	failed := 0
	line := func(pos token.Pos, fail bool, format string, args ...any) {
		p := c.fset.Position(pos)
		rel, _ := filepath.Rel(c.root, p.Filename)
		lines = append(lines, finding{rel, p.Line, fmt.Sprintf(format, args...)})
		if fail {
			failed++
		}
	}
	exposed := w.exposed()
	seen := map[token.Pos]bool{}
	for _, m := range c.mods {
		if len(m.files) == 0 { // a directory of tests only
			continue
		}
		if s, _ := w.src(m.files[0].Pos()); s.bench {
			continue
		}
		scope := m.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if s, _ := w.src(obj.Pos()); s.test || seen[obj.Pos()] {
				continue
			}
			seen[obj.Pos()] = true
			full := m.types.Path() + "." + name
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if st, ok := tn.Type().Underlying().(*types.Struct); ok {
					w.fields(st, full, seen, line)
				}
			}
			u := w.of(obj)
			switch {
			case !obj.Exported() || m.main || u.byOther || exposed[obj.Pos()]:
			case u.named:
				line(obj.Pos(), true, "%s is exported, but only its own package names it", full)
			default:
				line(obj.Pos(), true, "%s is named by nothing", full)
			}
		}
	}
	for pos, name := range w.declared {
		if s := w.flags[name]; s == nil || !s.code {
			line(pos, false, "census: flag -%s is set %s", name, who(s != nil && s.tests, s != nil && s.bench))
		}
	}
	sort.Slice(lines, func(i, j int) bool {
		a, b := lines[i], lines[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		return a.text < b.text
	})
	for _, l := range lines {
		fmt.Fprintf(out, "%s:%d: %s\n", l.file, l.line, l.text)
	}
	return failed, nil
}

// fields judges the fields of a declared struct type, and of the anonymous
// structs its fields hold.
func (w *walker) fields(st *types.Struct, name string, seen map[token.Pos]bool, line func(token.Pos, bool, string, ...any)) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() || seen[f.Pos()] {
			continue
		}
		seen[f.Pos()] = true
		full := name + "." + f.Name()
		u := w.of(f)
		switch {
		case u.read:
		case u.benchNamed:
			line(f.Pos(), false, "%s is read by no non-test code (listed, not failed: benchmark/ names it)", full)
		case u.testRead:
			line(f.Pos(), false, "%s is read only by tests (listed, not failed)", full)
		default:
			line(f.Pos(), true, "%s is read by no non-test code", full)
		}
		if f.Exported() && !u.write {
			line(f.Pos(), false, "census: %s is written %s", full, who(u.testWrite, u.benchWrite))
		}
		if inner, ok := deref(f.Type()).(*types.Struct); ok {
			w.fields(inner, full, seen, line)
		}
	}
}

// elems returns the types t holds: a pointer's, slice's, array's or
// channel's element, a map's key and element.
func elems(t types.Type) []types.Type {
	switch t := t.(type) {
	case *types.Map:
		return []types.Type{t.Key(), t.Elem()}
	case interface{ Elem() types.Type }:
		return []types.Type{t.Elem()}
	}
	return nil
}

// deref returns the type t holds at the end of its pointers, slices, arrays
// and maps (DeepEqual compares them element by element), or t.
func deref(t types.Type) types.Type {
	if e := elems(t.Underlying()); len(e) > 0 {
		return deref(e[len(e)-1])
	}
	return t
}

func who(tests, bench bool) string {
	switch {
	case tests && bench:
		return "only by tests and benchmark/"
	case tests:
		return "only by tests"
	case bench:
		return "only by benchmark/"
	}
	return "by nothing"
}

// walk records what one file does with the module's objects and the flags
// it declares.
func (w *walker) walk(m *module, f *ast.File) {
	s, _ := w.src(f.Pos())
	w.targets = map[ast.Expr]bool{}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		var parent ast.Node
		if len(stack) > 0 {
			parent = stack[len(stack)-1]
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.Ident:
			if obj := m.info.Uses[n]; obj != nil {
				w.use(s, obj, n, parent)
			}
		case *ast.AssignStmt: // x.f += y reads x.f only to write it
			for _, l := range n.Lhs {
				w.targets[ast.Unparen(l)] = false
				if ix, ok := ast.Unparen(l).(*ast.IndexExpr); ok { // x.f[i] = y
					w.targets[ast.Unparen(ix.X)] = true
				}
			}
		case *ast.SliceExpr: // x.f[:] may be written through
			w.targets[ast.Unparen(n.X)] = true
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				w.targets[n.Key], w.targets[n.Value] = false, false
			}
		case *ast.IncDecStmt:
			w.targets[ast.Unparen(n.X)] = false
		case *ast.UnaryExpr: // &x.f may be read or written through
			if n.Op == token.AND {
				w.targets[ast.Unparen(n.X)] = true
			}
		case *ast.CompositeLit:
			w.unkeyed(s, m.info, n)
		case *ast.FuncDecl: // one without a body is assembly, which reads its arguments
			if n.Body == nil && !s.test {
				for _, p := range n.Type.Params.List {
					w.compared(s, deref(m.info.TypeOf(p.Type)))
				}
			}
		case *ast.MapType:
			w.compared(s, m.info.TypeOf(n.Key))
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				w.compared(s, m.info.TypeOf(n.X))
			}
		case *ast.BasicLit:
			w.dash(s, n)
		case *ast.StructType:
			if st, ok := m.info.TypeOf(n).(*types.Struct); ok && !s.test {
				w.tagged(st)
			}
		case *ast.CallExpr:
			fn := callee(m.info, n)
			if fn == nil || fn.Pkg() == nil {
				break
			}
			if fn.FullName() == "reflect.DeepEqual" {
				for _, a := range n.Args {
					w.compared(s, deref(m.info.TypeOf(a)))
				}
			}
			if s.test {
				break
			}
			switch fn.Pkg().Path() {
			case "encoding/json", "encoding/gob":
				decode := strings.Contains(fn.Name(), "Unmarshal") || strings.Contains(fn.Name(), "Decode")
				for _, a := range n.Args {
					w.codec(m.info.TypeOf(a), decode)
				}
			case "flag":
				if pos, name, ok := flagName(m.info, fn, n); ok && !s.bench {
					w.declared[pos] = name
				}
			}
		}
		return true
	})
}

// use records one identifier that names obj.
func (w *walker) use(s source, obj types.Object, id *ast.Ident, parent ast.Node) {
	decl, ok := w.src(obj.Pos())
	if !ok {
		return
	}
	u := w.of(obj)
	u.named = true
	u.byOther = u.byOther || s.pkg != decl.pkg || (s.test && decl.pkg == w.rootPkg)
	u.benchNamed = u.benchNamed || s.bench
	if v, ok := obj.(*types.Var); !ok || !v.IsField() {
		return
	}
	read, write := true, false
	switch p := parent.(type) {
	case *ast.KeyValueExpr: // a struct literal's key
		read, write = p.Key != id, p.Key == id
	case *ast.SelectorExpr:
		if also, ok := w.targets[p]; ok && p.Sel == id {
			read, write = also, true
		}
	}
	u.read = u.read || (read && !s.test)
	u.testRead = u.testRead || (read && s.test)
	if write {
		w.wrote(s, u)
	}
}

func (w *walker) wrote(s source, u *uses) {
	u.testWrite = u.testWrite || s.test
	u.benchWrite = u.benchWrite || (s.bench && !s.test)
	u.write = u.write || (!s.bench && !s.test)
}

// unkeyed records the writes of a struct literal without keys.
func (w *walker) unkeyed(s source, info *types.Info, lit *ast.CompositeLit) {
	if len(lit.Elts) == 0 {
		return
	}
	if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
		return
	}
	t := info.TypeOf(lit)
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		for i := range lit.Elts {
			if _, ok := w.src(st.Field(i).Pos()); ok {
				w.wrote(s, w.of(st.Field(i)))
			}
		}
	}
}

// codec marks the fields encoding/json and encoding/gob read from t, or
// write when they decode into it: its exported fields, and theirs,
// transitively.
func (w *walker) codec(t types.Type, decode bool) {
	if t == nil || w.coded[coded{t, decode}] {
		return
	}
	w.coded[coded{t, decode}] = true
	for _, e := range elems(t.Underlying()) {
		w.codec(e, decode)
	}
	if t, ok := t.Underlying().(*types.Struct); ok {
		for i := 0; i < t.NumFields(); i++ {
			f := t.Field(i)
			if (f.Exported() || f.Embedded()) && reflect.StructTag(t.Tag(i)).Get("json") != "-" {
				if _, ok := w.src(f.Pos()); ok {
					u := w.of(f)
					u.read, u.write = true, u.write || decode
				}
				w.codec(f.Type(), decode)
			}
		}
	}
}

// coded is a type codec has marked, for encoding or for decoding.
type coded struct {
	t      types.Type
	decode bool
}

// compared marks every field that comparing two values of t reads (==, a
// map key, reflect.DeepEqual, or assembly handed the value).
func (w *walker) compared(s source, t types.Type) {
	switch t := t.Underlying().(type) {
	case *types.Array:
		w.compared(s, t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if _, ok := w.src(t.Field(i).Pos()); ok {
				u := w.of(t.Field(i))
				u.read, u.testRead = u.read || !s.test, u.testRead || s.test
			}
			w.compared(s, t.Field(i).Type())
		}
	}
}

// tagged marks a struct's json-tagged fields read, and what they hold: the
// codec that names them reads them whether or not a call the pass can see
// hands it their struct.
func (w *walker) tagged(st *types.Struct) {
	for i := 0; i < st.NumFields(); i++ {
		if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok && tag != "-" {
			w.of(st.Field(i)).read = true
			w.codec(st.Field(i).Type(), false)
		}
	}
}

func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// flagName returns the flag a call of package flag declares: the constant
// passed as its parameter called name.
func flagName(info *types.Info, fn *types.Func, call *ast.CallExpr) (token.Pos, string, bool) {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len() && i < len(call.Args); i++ {
		if params.At(i).Name() != "name" {
			continue
		}
		if v := info.Types[call.Args[i]].Value; v != nil && v.Kind() == constant.String {
			return call.Args[i].Pos(), constant.StringVal(v), true
		}
	}
	return token.NoPos, "", false
}

// dash records a string literal that sets a flag: "-name", "--name" or
// either with "=value".
func (w *walker) dash(s source, lit *ast.BasicLit) {
	if lit.Kind != token.STRING {
		return
	}
	v, err := strconv.Unquote(lit.Value)
	if err != nil || !strings.HasPrefix(v, "-") {
		return
	}
	name, _, _ := strings.Cut(strings.TrimLeft(v, "-"), "=")
	w.set(name, setBy{code: !s.test && !s.bench, bench: s.bench && !s.test, tests: s.test})
}

func (w *walker) set(name string, by setBy) {
	s := w.flags[name]
	if s == nil {
		s = new(setBy)
		w.flags[name] = s
	}
	s.code, s.bench, s.tests = s.code || by.code, s.bench || by.bench, s.tests || by.tests
}

var workflowFlag = regexp.MustCompile(`(?:^|[\s"'])--?([A-Za-z][\w-]*)`)

// workflows records the flags CI's workflows pass, as tests.
func (w *walker) workflows() error {
	files, err := filepath.Glob(filepath.Join(w.root, ".github", "workflows", "*.yml"))
	if err != nil {
		return err
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		for _, m := range workflowFlag.FindAllSubmatch(b, -1) {
			w.set(string(m[1]), setBy{tests: true})
		}
	}
	return nil
}

// exposed returns the module's named types that a declaration another
// package names exposes, through its type, signature, exported fields or
// exported methods, transitively.
func (w *walker) exposed() map[token.Pos]bool {
	exp := map[token.Pos]bool{}
	seen := map[types.Type]bool{}
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			if _, ok := w.src(t.Obj().Pos()); ok {
				exp[t.Obj().Pos()] = true
			}
			visit(types.Unalias(t))
		case *types.Named:
			if _, ok := w.src(t.Obj().Pos()); !ok {
				return
			}
			exp[t.Obj().Pos()] = true
			visit(t.Underlying())
			for i := 0; i < t.NumMethods(); i++ {
				if t.Method(i).Exported() {
					visit(t.Method(i).Type())
				}
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				visit(t.TypeArgs().At(i))
			}
		case *types.Signature:
			visit(t.Params())
			visit(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				visit(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if t.Field(i).Exported() || t.Field(i).Embedded() {
					visit(t.Field(i).Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if t.Method(i).Exported() {
					visit(t.Method(i).Type())
				}
			}
		default:
			for _, e := range elems(t) {
				visit(e)
			}
		}
	}
	for _, m := range w.mods {
		scope := m.types.Scope()
		for _, name := range scope.Names() {
			if obj := scope.Lookup(name); obj.Exported() && w.of(obj).byOther {
				visit(obj.Type())
			}
		}
	}
	return exp
}
