package experiments

// Runner regenerates one experiment at the given scale. Experiments that
// cannot fail wrap their Table in a nil error.
type Runner func(Scale) (*Table, error)

// wrapInfallible adapts the experiments that return a bare Table.
func wrapInfallible(f func(Scale) *Table) Runner {
	return func(s Scale) (*Table, error) { return f(s), nil }
}

// index is the canonical experiment registry in presentation order.
// cmd/spal-bench resolves experiment names here, so a new experiment
// needs one registration to be runnable and plottable.
var index = []struct {
	name string
	run  Runner
}{
	{"bits", wrapInfallible(PartitionBits)},
	{"fig3", wrapInfallible(Fig3Storage)},
	{"access", wrapInfallible(MemoryAccesses)},
	{"fig4", Fig4Mix},
	{"fig5", Fig5CacheSize},
	{"fig6", Fig6NumLCs},
	{"headline", Headline},
	{"speeds", Speeds},
	{"ablation", Ablation},
	{"updates", UpdateFlush},
	{"coverage", Coverage},
	{"worstcase", wrapInfallible(WorstCase)},
	{"rebuild", wrapInfallible(Rebuild)},
	{"survey", wrapInfallible(Survey)},
	{"drift", Drift},
	{"hotspot", Hotspot},
	{"latency", LatencyDistribution},
	{"warmup", Warmup},
	{"comparator", wrapInfallible(LengthPartitionComparison)},
	{"planes", Planes},
}

// Names lists every registered experiment in presentation order.
func Names() []string {
	out := make([]string, len(index))
	for i, e := range index {
		out[i] = e.name
	}
	return out
}

// Get resolves an experiment name, reporting whether it exists.
func Get(name string) (Runner, bool) {
	for _, e := range index {
		if e.name == name {
			return e.run, true
		}
	}
	return nil, false
}
