package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
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

// clis are the module's commands; a doc line that runs one may pass it only
// the flags its main.go defines.
var clis = []string{"spal-router", "spalsim", "spal-bench", "spal-partition", "spal-tracegen"}

// declared is what the module's non-test Go source declares, as the docs may
// cite it: the router and spal options, package spal's exported names, the
// metric families any package registers, and each CLI's flags.
type declared struct {
	options  map[string]bool
	exported map[string]bool
	families []string
	flags    map[string]map[string]bool
}

// parseDeclared walks the module from root (the nested benchmark module
// aside) with go/parser.
func parseDeclared(t *testing.T, root string) declared {
	t.Helper()
	d := declared{options: map[string]bool{}, exported: map[string]bool{}, flags: map[string]map[string]bool{}}
	for _, cli := range clis {
		d.flags[cli] = map[string]bool{"h": true, "help": true}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if e.IsDir() {
			if rel != "." && (rel == "benchmark" || e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		for _, decl := range f.Decls {
			var names []*ast.Ident
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names = append(names, decl.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names = append(names, spec.Name)
					case *ast.ValueSpec:
						names = append(names, spec.Names...)
					}
				}
			}
			for _, id := range names {
				if dir == "." && id.IsExported() {
					d.exported[id.Name] = true
				}
				if (dir == "." || dir == "internal/router") && strings.HasPrefix(id.Name, "With") {
					d.options[id.Name] = true
				}
			}
		}
		var flags map[string]bool // the CLI's, when this is its main.go
		if strings.HasPrefix(dir, "cmd/") && filepath.Base(rel) == "main.go" {
			flags = d.flags[strings.TrimPrefix(dir, "cmd/")]
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if v, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING && family.MatchString(v) {
					d.families = append(d.families, v)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok || flags == nil {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
					return true
				}
				for _, a := range n.Args { // the name: flag.Int("n", …), flag.IntVar(&n, "n", …)
					if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						flags[name] = true
						break
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

var (
	// family is a registered metric family name.
	family = regexp.MustCompile(`^spal_[a-z0-9_]+$`)
	// citedFamily is a family named in prose: braces followed by more of
	// the name are alternatives ({requests,replies}_total), braces that end
	// it are labels ({lc,path}), and a * stands for any run of the name.
	citedFamily = regexp.MustCompile(`\bspal_(?:[a-z0-9_*]|\{[a-z0-9_,]+\}[a-z0-9_*])*`)
	citedOption = regexp.MustCompile(`\bWith(?:out)?[A-Z][A-Za-z0-9]*`)
	citedSpal   = regexp.MustCompile(`\bspal\.([A-Z][A-Za-z0-9]*)`)
	cliRun      = regexp.MustCompile(`\b(` + strings.Join(clis, "|") + `)\b([^|;&#` + "`" + `)]*)`)
	cliFlag     = regexp.MustCompile(`(?:^|[\s\[])-([A-Za-z][A-Za-z0-9-]*)`)
	brace       = regexp.MustCompile(`\{([a-z0-9_,]+)\}`)
)

// expandBraces spells out every alternative of a brace form.
func expandBraces(s string) []string {
	loc := brace.FindStringSubmatchIndex(s)
	if loc == nil {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[loc[2]:loc[3]], ",") {
		out = append(out, expandBraces(s[:loc[0]]+alt+s[loc[1]:])...)
	}
	return out
}

// familyPattern turns one cited family into a match over registered names:
// a * stands for any run of name characters, and a trailing _ or _* makes the
// citation a prefix.
func familyPattern(cited string) *regexp.Regexp {
	cited = strings.TrimSuffix(cited, "*")
	if strings.HasSuffix(cited, "_") {
		cited += "*"
	}
	return regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(cited), `\*`, `[a-z0-9_]*`) + "$")
}

// A doc may only name what the code declares: every With* option, every
// spal.X, every spal_* metric family and every flag passed to one of the
// CLIs in README.md and DESIGN.md resolves against the non-test source.
func TestDocsCiteDeclaredNames(t *testing.T) {
	root := filepath.Join("..", "..")
	d := parseDeclared(t, root)
	for _, cli := range clis {
		if len(d.flags[cli]) <= 2 {
			t.Fatalf("cmd/%s/main.go: no flag.* definition found: the parse is stale", cli)
		}
	}
	cited := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			at := func(format string, args ...any) {
				t.Errorf("%s:%d: "+format, append([]any{doc, i + 1}, args...)...)
			}
			for _, name := range citedOption.FindAllString(line, -1) {
				if cited++; !d.options[name] {
					at("option %s is declared by neither internal/router nor spal.go", name)
				}
			}
			for _, m := range citedSpal.FindAllStringSubmatch(line, -1) {
				if cited++; !d.exported[m[1]] {
					at("package spal exports no %s", m[0])
				}
			}
			for _, name := range citedFamily.FindAllString(line, -1) {
				for _, alt := range expandBraces(name) {
					cited++
					pat, found := familyPattern(alt), false
					for _, f := range d.families {
						if found = pat.MatchString(f); found {
							break
						}
					}
					if !found {
						at("no package registers a metric family %s", alt)
					}
				}
			}
			for _, run := range cliRun.FindAllStringSubmatch(line, -1) {
				for _, f := range cliFlag.FindAllStringSubmatch(run[2], -1) {
					if cited++; !d.flags[run[1]][f[1]] {
						at("%s defines no flag -%s", run[1], f[1])
					}
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("no name cited in any doc: the patterns or the paths are stale")
	}
}
