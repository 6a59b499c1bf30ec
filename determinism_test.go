package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// auditPackages are the packages every reported number passes through:
// the simulation, the pricing engines, the estimator and the figures.
var auditPackages = []string{
	"core", "experiments", "forecast", "geo", "measure", "road", "sim",
	"stats", "strategy", "surge", "surgemap", "taxi", "transition",
}

// wallClockSites are the functions of the audit packages that may read
// the wall clock: each times a metric, and no result depends on it.
var wallClockSites = map[string]bool{
	"(*repro/internal/sim.World).Step":         true,
	"(*repro/internal/sim.World).observePhase": true,
	"(*repro/internal/surge.Engine).update":    true,
}

// TestDeterministicCore holds the audit packages' non-test code to three
// rules that keep a seeded run bit-identical from run to run:
//   - a range over a map, whose order Go randomizes, carries
//     //det:unordered <reason> on its line (the reason says why the
//     order cannot reach a result);
//   - no package-level math/rand function draws from the global,
//     unseeded generator (the New constructors are fine);
//   - time.Now and time.Since appear only at wallClockSites.
func TestDeterministicCore(t *testing.T) {
	fset := token.NewFileSet()
	exports := exportData(t)
	lookup := func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) }
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	for _, name := range auditPackages {
		dir := filepath.Join("internal", name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, e := range entries {
			if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		if _, err := conf.Check("repro/internal/"+name, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
		for _, f := range files {
			checkDeterministic(t, fset, info, f)
		}
	}
}

// exportData maps every package the audit packages import, the standard
// library included, to the export data the go command compiled for it, so
// that only the audit packages' own files are type-checked from source.
func exportData(t *testing.T) map[string]string {
	t.Helper()
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}
	for _, name := range auditPackages {
		args = append(args, "./internal/"+name)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var stderr []byte
		if ee, ok := err.(*exec.ExitError); ok {
			stderr = ee.Stderr
		}
		t.Fatalf("go list -export: %v\n%s", err, stderr)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			exports[path] = file
		}
	}
	return exports
}

func checkDeterministic(t *testing.T, fset *token.FileSet, info *types.Info, f *ast.File) {
	t.Helper()
	unordered := map[int]bool{} // lines that carry //det:unordered <reason>
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if reason, ok := strings.CutPrefix(c.Text, "//det:unordered "); ok && strings.TrimSpace(reason) != "" {
				unordered[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	for _, decl := range f.Decls {
		site := ""
		if fd, ok := decl.(*ast.FuncDecl); ok {
			site = info.Defs[fd.Name].(*types.Func).FullName()
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				pos := fset.Position(n.Pos())
				if _, isMap := info.TypeOf(n.X).Underlying().(*types.Map); isMap && !unordered[pos.Line] {
					t.Errorf("%s: range over a map without //det:unordered <reason>", pos)
				}
			case *ast.Ident:
				fn, ok := info.Uses[n].(*types.Func)
				if !ok || fn.Pkg() == nil {
					break
				}
				pkg, pos := fn.Pkg().Path(), fset.Position(n.Pos())
				switch {
				case (pkg == "math/rand" || pkg == "math/rand/v2") && fn.Type().(*types.Signature).Recv() == nil && !strings.HasPrefix(fn.Name(), "New"):
					t.Errorf("%s: %s.%s draws from the global generator; use a seeded *rand.Rand", pos, pkg, fn.Name())
				case pkg == "time" && (fn.Name() == "Now" || fn.Name() == "Since") && !wallClockSites[site]:
					t.Errorf("%s: time.%s in %s, which is not a metric site", pos, fn.Name(), site)
				}
			}
			return true
		})
	}
}
