package katara

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesRun executes every example binary end to end, guarding them
// against bit-rot. Skipped under -short (each example builds and runs a
// full pipeline).
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("examples are slow; skipped with -short")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"quickstart": "erroneous",
		"soccer":     "validated pattern",
		"kbenrich":   "second pass",
		"webtables":  "aggregate tuples",
		"university": "KATARA",
		"paths":      "wasBornIn∘isLocatedIn",
	}
	found := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		found++
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command("go", "run", "./"+filepath.Join("examples", name))
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("example %s failed: %v\n%s", name, err, out)
			}
			if marker, ok := want[name]; ok && !strings.Contains(string(out), marker) {
				t.Fatalf("example %s output missing %q:\n%s", name, marker, out)
			}
		})
	}
	if found < 3 {
		t.Fatalf("only %d examples found; the library promises at least 3", found)
	}
}
