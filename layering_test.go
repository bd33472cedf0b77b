package cudele

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyTheFacadeImportsSim: the simulator is one backend behind
// runtime.Runtime, so outside its own package only the facade, which
// picks the backend, imports it. Everything else names runtime's types
// and reaches the engine through a Runtime. benchmark/ is exempt: its
// probes build bare engines to time the kernel.
func TestOnlyTheFacadeImportsSim(t *testing.T) {
	const sim = "cudele/internal/sim"
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == "benchmark" || path == filepath.FromSlash("internal/sim") ||
				name == "testdata" || (path != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || path == "cudele.go" {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == sim {
				t.Errorf("%s imports %s; name cudele/internal/runtime's types instead", path, sim)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked < 50 { // the walk found the tree
		t.Fatalf("checked only %d files", checked)
	}
}
