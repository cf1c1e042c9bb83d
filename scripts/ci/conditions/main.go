// Command conditions lists what a GitHub Actions workflow runs, one line
// per (module, package, test, condition), so that a rewrite of the
// workflow can be shown to lose nothing:
//
//	go run ./scripts/ci/conditions > before.txt            # on the old workflow
//	go run ./scripts/ci/conditions -lost before.txt        # on the new one: exit 1 if a line is lost
//
// A condition is what a run adds to the plain `go test ./...`: the race
// detector, GOMAXPROCS, SPAL_CHAOS_SEED and the mode — test, bench at its
// -benchtime, the 0-allocs gate (a -benchmem bench in a step that reads
// allocs/op) or fuzz at its -fuzztime — with -count kept apart as the
// line's count. Every matrix is expanded, include entries too; every
// -run, -bench and -fuzz pattern is matched against what `go test -list`
// prints for its packages (a sub-test pattern after a '/' is kept as
// written); every other command a step runs is listed by its words. A
// line is covered by a line of the same module, package, name and
// condition whose count is at least its own.
//
// One loop form is understood: a step that pipes `go test -list P PKGS`
// into `while read -r PKG NAME; do ...; done` runs the loop's go test once
// for each (package, name) the listing prints that P matches.
//
// It reads the workflow through yq (`yq -o=json`, or `yq .` where yq is
// the jq wrapper) and runs go list and go test -list in the directories
// the steps run in, so run it from the repository root.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

type workflow struct {
	Env  map[string]any `json:"env"`
	Jobs map[string]struct {
		Env      map[string]any `json:"env"`
		Strategy struct {
			Matrix map[string]any `json:"matrix"`
		} `json:"strategy"`
		Steps []struct {
			Run string         `json:"run"`
			Env map[string]any `json:"env"`
			Dir string         `json:"working-directory"`
		} `json:"steps"`
	} `json:"jobs"`
}

const workflowFile = ".github/workflows/ci.yml"

// line is one output line; its key is everything but the count.
type line struct{ module, pkg, name, cond string }

func main() {
	lost := flag.String("lost", "", "a listing of an earlier workflow: print its lines this one does not cover")
	flag.Parse()
	out, err := exec.Command("yq", "-o=json", workflowFile).Output()
	if err != nil {
		out, err = exec.Command("yq", ".", workflowFile).Output()
	}
	if err != nil {
		fatal(fmt.Errorf("yq %s: %v", workflowFile, err))
	}
	var wf workflow
	if err := json.Unmarshal(out, &wf); err != nil {
		fatal(err)
	}
	runs := map[line]int{}
	for _, j := range wf.Jobs {
		for _, m := range combos(j.Strategy.Matrix) {
			for _, s := range j.Steps {
				env := merge(m, wf.Env, j.Env, s.Env)
				dir := filepath.Clean(filepath.Join(".", expand(s.Dir, m)))
				st := stepRun{dir: dir, env: env, gate: strings.Contains(s.Run, "allocs/op"), runs: runs}
				st.script(expand(s.Run, m))
			}
		}
	}
	if *lost == "" {
		lines := make([]line, 0, len(runs))
		for l := range runs {
			lines = append(lines, l)
		}
		slices.SortFunc(lines, func(a, b line) int {
			return strings.Compare(a.module+"\t"+a.pkg+"\t"+a.name+"\t"+a.cond, b.module+"\t"+b.pkg+"\t"+b.name+"\t"+b.cond)
		})
		for _, l := range lines {
			fmt.Printf("%s\t%s\t%s\t%s\tcount=%d\n", l.module, l.pkg, l.name, l.cond, runs[l])
		}
		return
	}
	f, err := os.Open(*lost)
	if err != nil {
		fatal(err)
	}
	n, missing := 0, 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		fs := strings.Split(sc.Text(), "\t")
		count, err := strconv.Atoi(strings.TrimPrefix(fs[len(fs)-1], "count="))
		if len(fs) != 5 || err != nil {
			fatal(fmt.Errorf("%s: malformed line %q", *lost, sc.Text()))
		}
		if runs[line{fs[0], fs[1], fs[2], fs[3]}] < count {
			fmt.Println("lost\t" + sc.Text())
			missing++
		}
	}
	fmt.Fprintf(os.Stderr, "%d lines before, %d now, %d lost\n", n, len(runs), missing)
	if missing > 0 {
		os.Exit(1)
	}
}

// combos expands a strategy matrix as GitHub does: the product of its
// lists, then each include entry added to every combination it does not
// contradict on a listed key, or appended as a combination of its own.
func combos(m map[string]any) []map[string]string {
	out := []map[string]string{{}}
	var listed []string
	for k, vs := range m {
		if k == "include" {
			continue
		}
		if k == "exclude" {
			fatal(fmt.Errorf("matrix exclude is not supported"))
		}
		list, ok := vs.([]any)
		if !ok {
			fatal(fmt.Errorf("matrix %s: want a list, have %v", k, vs))
		}
		listed = append(listed, k)
		var next []map[string]string
		for _, c := range out {
			for _, v := range list {
				c := maps.Clone(c)
				c[k] = fmt.Sprint(v)
				next = append(next, c)
			}
		}
		out = next
	}
	if len(listed) == 0 && m["include"] != nil {
		out = nil
	}
	base := len(out)
	inc, _ := m["include"].([]any)
	for _, e := range inc {
		fields, ok := e.(map[string]any)
		if !ok {
			fatal(fmt.Errorf("matrix include: want a map, have %v", e))
		}
		entry := map[string]string{}
		for k, v := range fields {
			entry[k] = fmt.Sprint(v)
		}
		added := false
		for _, c := range out[:base] {
			if !slices.ContainsFunc(listed, func(k string) bool { v, ok := entry[k]; return ok && v != c[k] }) {
				maps.Copy(c, entry)
				added = true
			}
		}
		if !added {
			out = append(out, entry)
		}
	}
	return out
}

var matrixExpr = regexp.MustCompile(`\$\{\{\s*matrix\.(\w+)\s*\}\}`)

func expand(s string, m map[string]string) string {
	s = matrixExpr.ReplaceAllStringFunc(s, func(e string) string { return m[matrixExpr.FindStringSubmatch(e)[1]] })
	if strings.Contains(s, "${{") {
		fatal(fmt.Errorf("unsupported expression in %q", s))
	}
	return s
}

// merge returns the environment a step sees: the workflow's, the job's
// and the step's, later ones winning, with matrix values substituted.
func merge(m map[string]string, envs ...map[string]any) map[string]string {
	out := map[string]string{}
	for _, e := range envs {
		for k, v := range e {
			out[k] = expand(fmt.Sprint(v), m)
		}
	}
	return out
}

// stepRun walks one step's script.
type stepRun struct {
	dir  string
	env  map[string]string
	gate bool // the step reads allocs/op: its -benchmem benches are a 0-allocs gate
	runs map[line]int

	listed [][2]string // the last go test -list's (package, name) pairs
	loop   [2]string   // the variables a while read binds to them
}

var assignment = regexp.MustCompile(`^\w+=`)

var keywords = map[string]bool{"if": true, "then": true, "do": true, "while": true}

// plumbing commands move or check output; they run nothing worth a line.
var plumbing = map[string]bool{"echo": true, "exit": true, "tee": true, "grep": true, "awk": true, "[": true, "fi": true, "done": true}

func (st *stepRun) script(s string) {
	for _, words := range commands(s, st.env) {
		for len(words) > 0 && keywords[words[0]] {
			words = words[1:]
		}
		env := maps.Clone(st.env)
		for len(words) > 0 && assignment.MatchString(words[0]) {
			k, v, _ := strings.Cut(words[0], "=")
			env[k], words = v, words[1:]
		}
		if i := slices.Index(words, "-tags"); i >= 0 && i+1 < len(words) && words[i+1] == "" {
			words = slices.Delete(words, i, i+2) // an empty tag set is no tag set
		}
		switch {
		case len(words) == 0:
		case words[0] == "done":
			st.listed, st.loop = nil, [2]string{}
		case words[0] == "read" && st.listed != nil:
			vars := slices.DeleteFunc(slices.Clone(words[1:]), func(w string) bool { return strings.HasPrefix(w, "-") })
			if len(vars) != 2 {
				fatal(fmt.Errorf("%q: want read -r PKG NAME after go test -list", strings.Join(words, " ")))
			}
			st.loop = [2]string{vars[0], vars[1]}
		case plumbing[words[0]]:
		case len(words) > 1 && words[0] == "go" && words[1] == "test" && st.loop[0] != "":
			for _, p := range st.listed {
				bind := strings.NewReplacer("${"+st.loop[0]+"}", p[0], "$"+st.loop[0], p[0], "${"+st.loop[1]+"}", p[1], "$"+st.loop[1], p[1])
				bound := make([]string, len(words))
				for i, w := range words {
					bound[i] = bind.Replace(w)
				}
				st.goTest(bound[2:], env)
			}
		case len(words) > 1 && words[0] == "go" && words[1] == "test":
			st.goTest(words[2:], env)
		default:
			st.runs[line{moduleOf(st.dir), "-", strings.Join(words, " "), condition(env, false, "cmd")}] = 1
		}
	}
}

// The go test flags this listing reads; any other (-short, -cpu, ...) is
// an error, not a condition silently dropped.
var boolFlags = map[string]bool{"race": true, "benchmem": true, "v": true}
var valueFlags = map[string]bool{"count": true, "run": true, "bench": true, "benchtime": true, "fuzz": true, "fuzztime": true, "timeout": true, "list": true, "tags": true}

// goTest records one go test invocation's lines, or, for -list, the
// (package, name) pairs a following while read loop runs over.
func (st *stepRun) goTest(args []string, env map[string]string) {
	f := map[string]string{"count": "1", "benchtime": "1s"}
	var pkgs []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			pkgs = append(pkgs, a)
			continue
		}
		k, v, hasV := strings.Cut(strings.TrimLeft(a, "-"), "=")
		switch {
		case boolFlags[k]:
			f[k] = "true"
		case valueFlags[k] && hasV:
			f[k] = v
		case valueFlags[k] && i+1 < len(args):
			f[k], i = args[i+1], i+1
		default:
			fatal(fmt.Errorf("go test %s: unknown flag %s", strings.Join(args, " "), a))
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	module := moduleOf(st.dir)
	names := listing(st.dir)
	if p, ok := f["list"]; ok {
		st.listed = nil
		for _, pkg := range goList(st.dir, pkgs) {
			for _, n := range names[pkg] {
				if len(match(p, n)) > 0 {
					st.listed = append(st.listed, [2]string{pkg, n})
				}
			}
		}
		return
	}
	count, err := strconv.Atoi(f["count"])
	if err != nil {
		fatal(err)
	}
	race := f["race"] != ""
	run, hasRun := f["run"]
	if !hasRun {
		run = "."
	}
	for _, pkg := range goList(st.dir, pkgs) {
		for _, n := range names[pkg] {
			var modes [][2]string // (pattern, mode)
			switch {
			case !strings.HasPrefix(n, "Benchmark"):
				modes = append(modes, [2]string{run, "test"})
				if strings.HasPrefix(n, "Fuzz") && f["fuzz"] != "" {
					modes = append(modes, [2]string{f["fuzz"], "fuzz:" + f["fuzztime"]})
				}
			case f["bench"] != "" && f["benchmem"] != "" && st.gate:
				modes = append(modes, [2]string{f["bench"], "allocs-gate:" + f["benchtime"]})
			case f["bench"] != "":
				modes = append(modes, [2]string{f["bench"], "bench:" + f["benchtime"]})
			}
			for _, pm := range modes {
				for _, name := range match(pm[0], n) {
					l := line{module, pkg, name, condition(env, race, pm[1])}
					st.runs[l] = max(st.runs[l], count)
				}
			}
		}
	}
}

// condition is a line's condition field.
func condition(env map[string]string, race bool, mode string) string {
	or := func(k string) string {
		if v := env[k]; v != "" {
			return v
		}
		return "-"
	}
	r := 0
	if race {
		r = 1
	}
	return fmt.Sprintf("race=%d procs=%s seed=%s mode=%s", r, or("GOMAXPROCS"), or("SPAL_CHAOS_SEED"), mode)
}

// match returns what pattern runs of the top-level test name, as
// testing's matcher reads it: alternatives split at a top-level '|',
// levels at a '/'. A lone name means all of it; name/rest, the sub-tests
// rest selects.
func match(pattern, name string) []string {
	var out []string
	for _, alt := range split(pattern, '|') {
		levels := split(alt, '/')
		re, err := regexp.Compile(levels[0])
		if err != nil {
			fatal(err)
		}
		if !re.MatchString(name) {
			continue
		}
		n := name
		if len(levels) > 1 {
			n += "/" + strings.Join(levels[1:], "/")
		}
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	if slices.Contains(out, name) {
		return []string{name}
	}
	return out
}

// split cuts s at each sep outside brackets and parentheses.
func split(s string, sep byte) []string {
	var out []string
	brackets, parens, start := 0, 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			brackets++
		case ']':
			brackets = max(brackets-1, 0)
		case '(':
			if brackets == 0 {
				parens++
			}
		case ')':
			if brackets == 0 {
				parens--
			}
		case '\\':
			i++
		case sep:
			if brackets == 0 && parens == 0 {
				out, start = append(out, s[start:i]), i+1
			}
		}
	}
	return append(out, s[start:])
}

// commands splits a shell script into simple commands, each a list of
// words with quotes removed and $VAR expanded from env (an unknown
// variable stays as written). Commands split at newlines, ';', '|',
// '&&' and '||'; a here-document's body and comments are dropped, and a
// $(...) is listed as a command of its own.
func commands(script string, env map[string]string) [][]string {
	var out [][]string
	var words []string
	var w strings.Builder
	inWord := false
	endWord := func() {
		if inWord {
			words = append(words, w.String())
		}
		w.Reset()
		inWord = false
	}
	endCmd := func() {
		endWord()
		if len(words) > 0 {
			out = append(out, words)
		}
		words = nil
	}
	variable := func(s string, i int) int { // expands the $ at s[i]; returns the index after it
		j := i + 1
		braced := j < len(s) && s[j] == '{'
		if braced {
			j++
		}
		k := j
		for k < len(s) && (s[k] == '_' || s[k] >= 'a' && s[k] <= 'z' || s[k] >= 'A' && s[k] <= 'Z' || s[k] >= '0' && s[k] <= '9') {
			k++
		}
		end := k
		if braced {
			end++
		}
		if v, ok := env[s[j:k]]; ok && k > j {
			w.WriteString(v)
		} else {
			w.WriteString(s[i:end])
		}
		return end
	}
	s := strings.ReplaceAll(script, "\\\n", "")
	var kept []string
	for sc := bufio.NewScanner(strings.NewReader(s)); sc.Scan(); {
		l := sc.Text()
		if delim, body := heredoc(l); body {
			kept = append(kept, l[:strings.Index(l, "<<")])
			for sc.Scan() && strings.TrimSpace(sc.Text()) != delim {
			}
			continue
		}
		kept = append(kept, l)
	}
	s = strings.Join(kept, "\n")
	unterminated := func(what string) { fatal(fmt.Errorf("unterminated %s in %q", what, script)) }
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\'':
			j := strings.IndexByte(s[i+1:], '\'')
			if j < 0 {
				unterminated("'")
			}
			w.WriteString(s[i+1 : i+1+j])
			inWord, i = true, i+j+2
		case c == '"':
			inWord = true
			for i++; i < len(s) && s[i] != '"'; {
				switch {
				case s[i] == '\\' && i+1 < len(s) && strings.IndexByte("$\"\\`", s[i+1]) >= 0:
					w.WriteByte(s[i+1])
					i += 2
				case s[i] == '$':
					i = variable(s, i)
				default:
					w.WriteByte(s[i])
					i++
				}
			}
			if i >= len(s) {
				unterminated(`"`)
			}
			i++
		case c == '$' && i+1 < len(s) && s[i+1] == '(':
			depth, j := 1, i+2
			for ; depth > 0 && j < len(s); j++ {
				depth += map[byte]int{'(': 1, ')': -1}[s[j]]
			}
			if depth > 0 {
				unterminated("$(")
			}
			out = append(out, commands(s[i+2:j-1], env)...)
			w.WriteString(s[i:j])
			inWord, i = true, j
		case c == '$':
			inWord, i = true, variable(s, i)
		case c == '\\' && i+1 < len(s):
			w.WriteByte(s[i+1])
			inWord, i = true, i+2
		case c == '#' && !inWord:
			for i < len(s) && s[i] != '\n' {
				i++
			}
		case c == '\n' || c == ';' || c == '|' || c == '&' && i+1 < len(s) && s[i+1] == '&':
			endCmd()
			for i++; i < len(s) && (s[i] == '|' || s[i] == '&'); i++ {
			}
		case c == ' ' || c == '\t':
			endWord()
			i++
		default:
			w.WriteByte(c)
			inWord, i = true, i+1
		}
	}
	endCmd()
	return out
}

// heredoc reports the delimiter of a here-document line l opens.
func heredoc(l string) (string, bool) {
	_, after, ok := strings.Cut(l, "<<")
	if !ok {
		return "", false
	}
	return strings.Trim(strings.TrimPrefix(strings.TrimSpace(after), "-"), `'"`), true
}

var modules = map[string]string{}

// moduleOf returns the path of the module dir is in.
func moduleOf(dir string) string {
	if m, ok := modules[dir]; ok {
		return m
	}
	modules[dir] = strings.TrimSpace(string(run(dir, "go", "list", "-m")))
	return modules[dir]
}

var listings = map[string]map[string][]string{}

// listing returns what go test -list . prints for every package of dir's
// module: package import path -> top-level test, benchmark, fuzz and
// example names.
func listing(dir string) map[string][]string {
	root := strings.TrimSpace(string(run(dir, "go", "list", "-m", "-f", "{{.Dir}}")))
	if l, ok := listings[root]; ok {
		return l
	}
	l := map[string][]string{}
	var names []string
	for _, s := range strings.Split(string(run(root, "go", "test", "-list", ".", "./...")), "\n") {
		fs := strings.Fields(s)
		switch {
		case len(fs) == 0:
		case fs[0] == "ok" && len(fs) > 1:
			l[fs[1]], names = names, nil
		case fs[0] == "?":
		case len(fs) == 1:
			names = append(names, fs[0])
		default:
			fatal(fmt.Errorf("go test -list in %s: unexpected line %q", root, s))
		}
	}
	listings[root] = l
	return l
}

// goList expands package patterns in dir to import paths.
func goList(dir string, pkgs []string) []string {
	return strings.Fields(string(run(dir, "go", append([]string{"list"}, pkgs...)...)))
}

func run(dir, name string, args ...string) []byte {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fatal(fmt.Errorf("%s %s in %s: %v", name, strings.Join(args, " "), dir, err))
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "conditions:", err)
	os.Exit(1)
}
