package pgcs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// testFuncs returns the names of the top-level functions declared in the
// _test.go files of the package in dir.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no test files (%v)", dir, err)
	}
	names := make(map[string]bool)
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
	}
	return names
}

// TestCIPatternsNameTests: every name in a `go test -run` or `-fuzz`
// pattern of the CI workflow ('|'-separated, '^' and '$' stripped, a
// subtest path cut at its first '/') is a function in the _test.go files
// of the package that command tests. `go test -run` with a name that
// matches nothing passes silently, so a deleted or renamed test would
// otherwise drop out of its CI step unnoticed.
func TestCIPatternsNameTests(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	data, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	pattern := regexp.MustCompile(`\s-(?:run|fuzz)[ =]'?([^'\s]+)'?`)
	pkg := regexp.MustCompile(`\s(\./[^\s]+)`)
	resolved := 0
	for i, line := range strings.Split(string(data), "\n") {
		if !strings.Contains(line, "go test") {
			continue
		}
		m := pattern.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pkgs := pkg.FindAllStringSubmatch(line, -1)
		if len(pkgs) != 1 || strings.HasSuffix(pkgs[0][1], "...") {
			t.Errorf("%s:%d: a -run/-fuzz command must name one package: %s", workflow, i+1, strings.TrimSpace(line))
			continue
		}
		funcs := testFuncs(t, pkgs[0][1])
		for _, name := range strings.Split(m[1], "|") {
			name = strings.TrimSuffix(strings.TrimPrefix(name, "^"), "$")
			name, _, _ = strings.Cut(name, "/")
			if !funcs[name] {
				t.Errorf("%s:%d: %q is no function in %s's test files", workflow, i+1, name, pkgs[0][1])
				continue
			}
			resolved++
		}
	}
	if resolved == 0 {
		t.Fatalf("%s: no -run or -fuzz pattern found", workflow)
	}
	t.Logf("%d names in %s resolve", resolved, workflow)
}
