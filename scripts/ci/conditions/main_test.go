package main

import (
	"fmt"
	"slices"
	"testing"
)

func TestCombosAddsOrAppendsIncludes(t *testing.T) {
	m := map[string]any{
		"seed":     []any{1.0, 7.0},
		"scenario": []any{"Chaos"},
		"include": []any{
			map[string]any{"seed": 7.0, "extra": "x"},         // extends (7, Chaos)
			map[string]any{"seed": 7.0, "scenario": "KillLC"}, // contradicts a listed key: its own
		},
	}
	got := fmt.Sprint(combos(m))
	want := "[map[scenario:Chaos seed:1] map[extra:x scenario:Chaos seed:7] map[scenario:KillLC seed:7]]"
	if got != want {
		t.Errorf("combos = %s, want %s", got, want)
	}
}

func TestMatchReadsLevelsAndAlternatives(t *testing.T) {
	for _, c := range []struct {
		pattern, name string
		want          []string
	}{
		{"^TestA$|^TestB", "TestBx", []string{"TestBx"}},
		{"^TestA$", "TestAB", nil},
		{"^BenchmarkMiss$/^remote$", "BenchmarkMiss", []string{"BenchmarkMiss/^remote$"}},
		{"^BenchmarkMiss$/^remote$|Miss", "BenchmarkMiss", []string{"BenchmarkMiss"}}, // all of it
		{"^(A|B)$", "B", []string{"B"}},
	} {
		if got := match(c.pattern, c.name); !slices.Equal(got, c.want) {
			t.Errorf("match(%q, %q) = %q, want %q", c.pattern, c.name, got, c.want)
		}
	}
}

func TestCommandsUnquoteExpandAndSplit(t *testing.T) {
	script := `x=$(gofmt -l .)
go test -tags "$TAGS" -run '^A$|^B$' \
  ./p/ | tee out   # a comment
"$BIN" -config /dev/stdin <<'EOF'
{"not": "a command"}
EOF
go test -fuzz "^$target\$" "$pkg" && echo done`
	got := fmt.Sprintf("%q", commands(script, map[string]string{"TAGS": ""}))
	want := `[["gofmt" "-l" "."] ["x=$(gofmt -l .)"] ["go" "test" "-tags" "" "-run" "^A$|^B$" "./p/"] ["tee" "out"] ` +
		`["$BIN" "-config" "/dev/stdin"] ["go" "test" "-fuzz" "^$target$" "$pkg"] ["echo" "done"]]`
	if got != want {
		t.Errorf("commands =\n%s\nwant\n%s", got, want)
	}
}
