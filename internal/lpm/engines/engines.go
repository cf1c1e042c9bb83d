// Package engines is the name → builder registry for every
// longest-prefix-matching engine in the repository. It exists so the
// router's WithEngineName option, the spal façade, and both CLIs resolve
// engine names through one table instead of each maintaining its own
// copy (which is how a new engine used to miss a frontend).
package engines

import (
	"fmt"
	"sort"
	"strings"

	"spal/internal/lpm"
	"spal/internal/lpm/bintrie"
	"spal/internal/lpm/dptrie"
	"spal/internal/lpm/lctrie"
	"spal/internal/lpm/lulea"
	"spal/internal/lpm/stride24"
)

// registry holds the paper's three tries (lulea, dptrie, lctrie), the
// binary trie (dynamic, and Fig. 3's BIN), the hash oracle, and stride24,
// the fastest engine of the Survey table (EXPERIMENTS.md).
var registry = map[string]lpm.Builder{
	"reference": lpm.NewReferenceEngine,
	"bintrie":   bintrie.NewEngine,
	"dptrie":    dptrie.NewEngine,
	"lctrie":    lctrie.NewEngine,
	"lulea":     lulea.NewEngine,
	"stride24":  stride24.NewEngine,
}

// dynamic names the engines whose built structures implement
// lpm.DynamicEngine (in-place Insert/Delete), so the router's incremental
// update plane can stream announces/withdraws into them instead of
// rebuilding. Kept honest by TestDynamicRegistry, which builds each one
// and type-asserts.
var dynamic = map[string]bool{
	"bintrie": true,
	"dptrie":  true,
}

// IsDynamic reports whether the named engine supports in-place updates.
func IsDynamic(name string) bool { return dynamic[name] }

// DynamicNames returns the names of the dynamic engines, sorted.
func DynamicNames() []string {
	out := make([]string, 0, len(dynamic))
	for k := range dynamic {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Builders returns a fresh copy of the registry (callers may mutate it).
func Builders() map[string]lpm.Builder {
	out := make(map[string]lpm.Builder, len(registry))
	for k, v := range registry {
		out[k] = v
	}
	return out
}

// Lookup resolves an engine name; the error lists every valid name.
func Lookup(name string) (lpm.Builder, error) {
	if b, ok := registry[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("unknown engine %q (have %s)", name, strings.Join(Names(), ", "))
}

// Names returns the registered engine names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
