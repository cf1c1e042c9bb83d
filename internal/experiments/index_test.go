package experiments

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"spal/internal/lpm/engines"
)

// A doc may only cite an experiment that exists: every `-exp <name>` in
// the prose and the examples is "all" or a registered name.
func TestDocsCiteRegisteredExperiments(t *testing.T) {
	root := filepath.Join("..", "..")
	files, err := filepath.Glob(filepath.Join(root, "examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		files = append(files, filepath.Join(root, doc))
	}
	cite := regexp.MustCompile(`-exp\s+([A-Za-z0-9_-]+)`)
	cited := 0
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllSubmatch(text, -1) {
			cited++
			name := string(m[1])
			if _, ok := Get(name); !ok && name != "all" {
				t.Errorf("%s cites `-exp %s`: spal-bench has no such experiment (registered: %v)", f, name, Names())
			}
		}
	}
	if cited == 0 {
		t.Fatal("no `-exp <name>` found in any doc: the pattern or the paths are stale")
	}
}

// A doc may only cite an engine that is registered: every `-engine <name>`,
// `WithEngineName("<name>")`, `WithRouterEngineName("<name>")`,
// `Engines()["<name>"]` and `engines.Lookup("<name>")` in the prose, the
// examples and the commands resolves.
func TestDocsCiteRegisteredEngines(t *testing.T) {
	root := filepath.Join("..", "..")
	var files []string
	for _, pattern := range []string{"README.md", "DESIGN.md", "examples/*/main.go", "cmd/*/main.go"} {
		m, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	cite := regexp.MustCompile(`-engine[ =]([A-Za-z0-9_-]+)|(?:WithEngineName|WithRouterEngineName|engines\.Lookup)\("([^"]*)"\)|Engines\(\)\["([^"]*)"\]`)
	cited := 0
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllSubmatch(text, -1) {
			cited++
			name := string(m[1]) + string(m[2]) + string(m[3])
			if _, err := engines.Lookup(name); err != nil {
				t.Errorf("%s cites %q: %v", f, m[0], err)
			}
		}
	}
	if cited == 0 {
		t.Fatal("no engine citation found in any doc: the pattern or the paths are stale")
	}
}
