package mass_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreferencedAllowed names the exported top-level functions under
// internal/ that no production code has to name, keyed package.Function,
// with the reason each stays.
var unreferencedAllowed = map[string]string{
	"linkrank.CheckStochastic": "the stochastic-vector test oracle of every PageRank path",
	"query.Asc":                "query builder surface: the ascending counterpart of query.Desc",
	"query.Interest":           "query builder surface: the interest-vector field beside query.DescInterest",
	"xmlstore.LoadShards":      "reads the sharded corpus layout mass-synth writes",
	"viz.LoadXML":              "reads the network XML mass-viz writes",
}

// TestNoUnreferencedExports fails when an exported top-level function
// declared in a non-test file under internal/ is named by no non-test Go
// file in the repository (perfbench included), so code that only tests
// reach cannot accumulate. A function counts as used where it is named
// bare inside its own package, or as alias.F in a file importing that
// package; a method or field of the same name does not count.
// Methods are not checked.
func TestNoUnreferencedExports(t *testing.T) {
	declared := map[string]string{} // "internal/pkg.Func" → declaring file
	used := map[string]bool{}       // "internal/pkg.Func"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		own := map[*ast.Ident]bool{}
		for _, fd := range f.Decls {
			if fn, ok := fd.(*ast.FuncDecl); ok {
				own[fn.Name] = true
				if fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(dir, "internal/") {
					declared[dir+"."+fn.Name.Name] = p
				}
			}
		}
		imports := map[string]string{} // local package name → repo dir
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(ipath, "mass/")
			if !ok {
				continue
			}
			name := path.Base(rel)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = rel
		}
		sels := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !own[n] && !sels[n] {
					used[dir+"."+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	for key, file := range declared {
		_, ok := unreferencedAllowed[strings.TrimPrefix(key, "internal/")]
		if !used[key] && !ok {
			unused = append(unused, file+": "+path.Base(key))
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("exported functions no non-test code names (delete them, or allowlist one with a reason):\n\t%s",
			strings.Join(unused, "\n\t"))
	}
}
