package repro

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

// registerKinds maps the obs.Registry methods that register a metric to
// the type the Signals table names.
var registerKinds = map[string]string{"Counter": "counter", "Gauge": "gauge", "Histogram": "histogram"}

// TestSignalsDocumented ties the metric names the program registers to
// DESIGN.md's "Signals" table, and each name to a reader:
//   - every .Counter/.Gauge/.Histogram call in non-test Go under
//     internal/ and cmd/ names its metric with a string literal;
//   - the set of those names, each with its type, equals the table's;
//   - every name occurs in a _test.go file other than this one, in the
//     CI workflow or under bench/: a metric nobody reads goes.
func TestSignalsDocumented(t *testing.T) {
	registered := registeredSignals(t)
	documented := documentedSignals(t)
	for _, name := range sortedKeys(registered) {
		kind, doc := registered[name], documented[name]
		switch {
		case doc == "":
			t.Errorf("%s (%s) is registered but not in DESIGN.md's Signals table", name, kind)
		case doc != kind:
			t.Errorf("%s is a %s, but DESIGN.md's Signals table says %s", name, kind, doc)
		}
	}
	for _, name := range sortedKeys(documented) {
		if _, ok := registered[name]; !ok {
			t.Errorf("DESIGN.md's Signals table lists %s, which nothing registers", name)
		}
	}

	var readers []string
	add := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		readers = append(readers, string(b))
	}
	add(filepath.Join(".github", "workflows", "ci.yml"))
	bench, benchOut := "bench"+string(filepath.Separator), filepath.Join("bench", "out")+string(filepath.Separator)
	walkFiles(t, ".", func(path string) {
		switch {
		case strings.HasSuffix(path, "_test.go") && path != "signals_test.go",
			strings.HasPrefix(path, bench) && !strings.HasPrefix(path, benchOut):
			add(path)
		}
	})
	for _, name := range sortedKeys(registered) {
		read := false
		for _, r := range readers {
			if strings.Contains(r, name) {
				read = true
				break
			}
		}
		if !read {
			t.Errorf("%s has no reader: no test, CI step or bench/ code names it", name)
		}
	}
}

// registeredSignals returns the metric names registered by non-test Go
// under internal/ and cmd/, with their types.
func registeredSignals(t *testing.T) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	names := map[string]string{}
	for _, root := range []string{"internal", "cmd"} {
		walkFiles(t, root, func(path string) {
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				kind, ok := registerKinds[sel.Sel.Name]
				if !ok {
					return true
				}
				lit, ok := call.Args[0].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Errorf("%s: %s names its metric with a non-literal", fset.Position(call.Pos()), sel.Sel.Name)
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				if prev, ok := names[name]; ok && prev != kind {
					t.Errorf("%s: %s registered as both %s and %s", fset.Position(call.Pos()), name, prev, kind)
				}
				names[name] = kind
				return true
			})
		})
	}
	if len(names) == 0 {
		t.Fatal("found no registered metric")
	}
	return names
}

// documentedSignals parses the name and type columns of DESIGN.md's
// "Signals" table.
func documentedSignals(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(b), "\n## Signals\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## Signals\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	names := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 7 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`") {
			continue // not a table row, or the header and its rule
		}
		name := strings.Trim(strings.TrimSpace(cells[1]), "`")
		if _, dup := names[name]; dup {
			t.Errorf("DESIGN.md's Signals table lists %s twice", name)
		}
		names[name] = strings.TrimSpace(cells[2])
	}
	if len(names) == 0 {
		t.Fatal("DESIGN.md's Signals table has no rows")
	}
	return names
}

// walkFiles calls fn on every regular file under root, skipping hidden
// directories (.git and build caches).
func walkFiles(t *testing.T, root string, fn func(path string)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Type().IsRegular() {
			fn(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
