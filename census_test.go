package pgcs_test

import (
	"go/ast"
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
			// The go tool's own rule: it ignores testdata and names
			// starting with "." or "_".
			name := d.Name()
			if path == "bench" || path == "examples" || name == "testdata" ||
				path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
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
		pkg := "repro"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
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

// TestOptionCensus pins the module's settable values to
// testdata/options.golden, so a change that adds or removes a flag or a
// config field shows the line in its diff. On a deliberate change, replace
// the golden file's contents with the list the failure prints.
func TestOptionCensus(t *testing.T) {
	got := optionCensus(t)
	raw, err := os.ReadFile("testdata/options.golden")
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
		t.Errorf("option census (%d) differs from testdata/options.golden (%d):\n%s\n\ncurrent census:\n%s",
			len(got), len(want), strings.Join(diff, "\n"), strings.Join(got, "\n"))
	}
}
