package cudele

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/examples/*.golden from the examples' output")

// TestExamplesMatchGoldens builds every program under examples/, runs it,
// and compares its stdout byte for byte with
// testdata/examples/<name>.golden. The examples run on the simulator with
// fixed seeds, so each narrative — virtual timestamps, inode grants,
// merge counts — is a pure function of the code, and a change that moves
// any of it shows here. After an intended change, rewrite the goldens
// with go test -run TestExamplesMatchGoldens -update .
func TestExamplesMatchGoldens(t *testing.T) {
	dirs, err := filepath.Glob("examples/*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found: %v", err)
	}
	bins := t.TempDir()
	for _, dir := range dirs {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			bin := filepath.Join(bins, name)
			if out, err := exec.Command("go", "build", "-o", bin, "./"+dir).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			var stderr bytes.Buffer
			cmd := exec.Command(bin)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.Bytes())
			}
			golden := filepath.Join("testdata", "examples", name+".golden")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout differs from %s:\n--- got\n%s--- want\n%s", golden, got, want)
			}
		})
	}
}
