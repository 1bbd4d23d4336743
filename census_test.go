package pgcs_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagDefiners are the package flag functions that define a command-line
// flag.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true,
	"Int": true, "IntVar": true, "Int64": true, "Int64Var": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true,
	"Float64": true, "Float64Var": true,
	"String": true, "StringVar": true,
	"Duration": true, "DurationVar": true,
	"Func": true, "Var": true, "TextVar": true,
}

// optionCensus lists every independently settable value of the module: one
// line per exported field of an exported struct type whose name ends in
// Options, Config or Spec (an embedded struct is counted at its own
// declaration, not again where it is embedded), and one line per flag a
// command under cmd/ defines. Test files, bench/ and examples/ are not
// scanned.
func optionCensus(t *testing.T) []string {
	t.Helper()
	var lines []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "examples" || skipDir(path) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkg := importPath(filepath.Dir(path))
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				name := ts.Name.Name
				if !ok || !ts.Name.IsExported() ||
					!(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Spec")) {
					continue
				}
				for _, field := range st.Fields.List {
					for _, id := range field.Names {
						if id.IsExported() {
							lines = append(lines, pkg+" "+name+"."+id.Name)
						}
					}
				}
			}
		}
		if !strings.HasPrefix(pkg, "repro/cmd/") {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiners[sel.Sel.Name] {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if len(call.Args) <= arg {
				return true
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok {
				t.Errorf("%s: flag name is not a literal", fset.Position(call.Pos()))
				return true
			}
			flagName, _ := strconv.Unquote(lit.Value)
			lines = append(lines, pkg+" -"+flagName)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return lines
}

// skipDir reports whether a walk of the module from its root skips the
// directory at path: bench/ is a module of its own, and the go tool
// ignores testdata and names starting with "." or "_".
func skipDir(path string) bool {
	name := filepath.Base(path)
	return path == "bench" || name == "testdata" ||
		path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_"))
}

// importPath is the import path of the module's package in dir.
func importPath(dir string) string {
	if dir = filepath.ToSlash(dir); dir == "." {
		return "repro"
	}
	return "repro/" + dir
}

// packageCensus lists the module's package structure: one "daemon" line
// per package of the module that cmd/pgcsd links (itself included, as
// `go list -deps repro/cmd/pgcsd` lists it), and one "single" line per
// internal package that exactly one package of the module imports outside
// its tests, naming that importer.
func packageCensus(t *testing.T) []string {
	t.Helper()
	imports := make(map[string][]string) // package -> the module packages it imports
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if skipDir(path) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		var mod []string
		for _, imp := range pkg.Imports {
			if imp == "repro" || strings.HasPrefix(imp, "repro/") {
				mod = append(mod, imp)
			}
		}
		imports[importPath(path)] = mod
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	linked := map[string]bool{}
	var link func(string)
	link = func(pkg string) {
		if linked[pkg] {
			return
		}
		if _, ok := imports[pkg]; !ok {
			t.Fatalf("%s is imported but not found in the module", pkg)
		}
		linked[pkg] = true
		lines = append(lines, "daemon "+pkg)
		for _, imp := range imports[pkg] {
			link(imp)
		}
	}
	link("repro/cmd/pgcsd")
	importers := make(map[string][]string)
	for pkg, imps := range imports {
		for _, imp := range imps {
			importers[imp] = append(importers[imp], pkg)
		}
	}
	for pkg, by := range importers {
		if strings.HasPrefix(pkg, "repro/internal/") && len(by) == 1 {
			lines = append(lines, "single "+pkg+" <- "+by[0])
		}
	}
	sort.Strings(lines)
	return lines
}

// diffGolden compares got with the lines of the golden file and, if they
// differ, fails the test printing the difference and the whole of got,
// which is the new golden file after a deliberate change.
func diffGolden(t *testing.T, file string, got []string) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	inGot := make(map[string]bool, len(got))
	for _, l := range got {
		inGot[l] = true
	}
	inWant := make(map[string]bool, len(want))
	for _, l := range want {
		inWant[l] = true
	}
	var diff []string
	for _, l := range want {
		if !inGot[l] {
			diff = append(diff, "- "+l)
		}
	}
	for _, l := range got {
		if !inWant[l] {
			diff = append(diff, "+ "+l)
		}
	}
	if len(diff) > 0 {
		t.Errorf("census (%d) differs from %s (%d):\n%s\n\ncurrent census:\n%s",
			len(got), file, len(want), strings.Join(diff, "\n"), strings.Join(got, "\n"))
	}
}

// TestOptionCensus pins the module's settable values to
// testdata/options.golden, so a change that adds or removes a flag or a
// config field shows the line in its diff. On a deliberate change, replace
// the golden file's contents with the list the failure prints.
func TestOptionCensus(t *testing.T) {
	diffGolden(t, "testdata/options.golden", optionCensus(t))
}

// TestPackageCensus pins the module's package structure to
// testdata/packages.golden: what the daemon links, and which internal
// packages have a single consumer. A package that moves into or out of
// pgcsd's closure, or a new package only one other imports, shows the
// line in the diff. On a deliberate change, replace the golden file's
// contents with the list the failure prints.
func TestPackageCensus(t *testing.T) {
	diffGolden(t, "testdata/packages.golden", packageCensus(t))
}
