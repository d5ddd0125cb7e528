package mass_bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreferencedAllowed names the exported top-level functions under
// internal/ that no production code has to name, with the reason each
// stays.
var unreferencedAllowed = map[string]string{
	"CheckStochastic": "linkrank: the stochastic-vector test oracle of every PageRank path",
	"Asc":             "query builder surface: the ascending counterpart of query.Desc",
	"Interest":        "query builder surface: the interest-vector field beside query.DescInterest",
	"LoadShards":      "xmlstore: reads the sharded corpus layout mass-synth writes",
	"LoadXML":         "viz: reads the network XML mass-viz writes",
}

// TestNoUnreferencedExports fails when an exported top-level function
// declared in a non-test file under internal/ is named by no non-test Go
// file in the repository (perfbench included), so code that only tests
// reach cannot accumulate. A name counts as used wherever it appears
// outside a function declaration's own name; methods are not checked.
func TestNoUnreferencedExports(t *testing.T) {
	declared := map[string]string{} // function name → declaring file
	used := map[string]bool{}
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
		names := map[*ast.Ident]bool{}
		for _, fd := range f.Decls {
			if fn, ok := fd.(*ast.FuncDecl); ok {
				names[fn.Name] = true
				if fn.Recv == nil && fn.Name.IsExported() && strings.HasPrefix(filepath.ToSlash(p), "internal/") {
					declared[fn.Name.Name] = p
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	for name, file := range declared {
		if _, ok := unreferencedAllowed[name]; !used[name] && !ok {
			unused = append(unused, file+": "+name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("exported functions no non-test code names (delete them, or allowlist one with a reason):\n\t%s",
			strings.Join(unused, "\n\t"))
	}
}
