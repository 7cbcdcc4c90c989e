package zipserv

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

// surfaceAllowlist names the exported functions and methods under
// internal/ that no non-test file calls but that stay exported: oracles,
// fixtures and test seams that the tests of more than one package use.
// A name used by one package's tests belongs in that package's _test.go
// files instead. Keys are "pkg.Func" or "pkg.Recv.Method".
var surfaceAllowlist = map[string]string{
	"bf16.FromFloat32Matrix":       "builds exact-valued fixtures for bf16's and zipgemm's tests",
	"bf16.Matrix.Clone":            "copies a fixture before bf16's and kvcache's tests mutate it",
	"bf16.Matrix.FirstDiff":        "names the first differing element in the bit-exactness tests of bf16, core, codec, kvcache and zipgemm",
	"core.DecompressCounted":       "the counted decode that core's reference tests and gpu's instruction-model tests compare against",
	"tile.Grid.FromCoord":          "the fragment-to-element oracle of tile's and core's layout and reference-codec tests",
	"tile.Grid.InBounds":           "the padding predicate of the same oracle, in tile's and core's tests",
	"kvcache.Manager.Walks":        "counts trie walks so engine's tests can prove admission walks once per generation",
	"weights.GaussianWithOutliers": "the outlier-heavy fixture for the fallback path in weights', warp's and zipgemm's tests",
}

// exemptMethods are methods that satisfy a standard-library interface,
// so the standard library, not a file of this repo, calls them.
var exemptMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, // heap.Interface
	"String": true, // fmt.Stringer
	"Error":  true, // error
}

// TestInternalSurfaceIsUsed fails on any exported function or method
// under internal/ that no non-test Go file of the root module, examples/
// or perfbench/ names. The facade aliases whole internal types, so each
// such method is also public zipserv API that nothing uses: delete it,
// move it into the _test.go file of the one package whose tests use it,
// or, for an oracle the tests of several packages share, allowlist it
// with the reason.
//
// The scan matches names without type information. Its blind spot is a
// name that production uses on another type: a method named Lookup
// counts as used while any file calls flag.Lookup, and a method counts
// as used when a struct field of the same name is read. A recursive
// call also counts as a use.
func TestInternalSurfaceIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, name, pos string }
	var decls []decl
	used := map[string]bool{}
	// "." holds the root module, examples/ and perfbench/.
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		// Declarations name nothing: a function's own name, struct
		// fields, parameters, interface methods and composite-literal
		// keys are not uses.
		declared := map[*ast.Ident]bool{}
		for _, n := range f.Decls {
			fd, ok := n.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !internal || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				if exemptMethods[fd.Name.Name] {
					continue
				}
				key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, fd.Name.Name, fset.Position(fd.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				for _, id := range n.Names {
					declared[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					declared[id] = true
				}
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/; is the test running from the repo root?")
	}
	var unused []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if _, ok := surfaceAllowlist[d.key]; ok {
			allowed[d.key] = true
			if used[d.name] {
				t.Errorf("%s is allowlisted, but a non-test file names %s: drop the entry", d.key, d.name)
			}
		} else if !used[d.name] {
			unused = append(unused, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: exported, but no non-test file names it", u)
	}
	for key := range surfaceAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no exported function under internal/", key)
		}
	}
}

// recvName returns the type name of a method receiver: T for T and *T.
func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	return e.(*ast.Ident).Name
}
