// Package experiments implements the reproduction experiments E1–E11,
// each documented on its E-function: Table 1 measured empirically, and
// one experiment per theorem of the paper. Each experiment builds its
// workload, runs the algorithms, and returns a rendered table; cmd/hhbench
// prints them and bench_test.go wraps them as benchmarks.
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/frequent"
	"repro/internal/harness"
	"repro/internal/lossycounting"
	"repro/internal/spacesaving"
)

// Config scales every experiment's workload. Tests use Small for speed;
// cmd/hhbench defaults to Default.
type Config struct {
	// N is the stream length of the main workloads.
	N uint64
	// Universe is the number of distinct items n.
	Universe int
	// Alpha is the Zipf parameter of the main workloads.
	Alpha float64
	// Seed drives all deterministic randomness.
	Seed uint64
}

// Default is the full-size configuration used by cmd/hhbench: a
// million-element stream over a 100k universe, the scale of the Table 1
// discussion.
func Default() Config {
	return Config{N: 1_000_000, Universe: 100_000, Alpha: 1.1, Seed: 20090629}
}

// Small is a reduced configuration for unit tests and -short runs.
func Small() Config {
	return Config{N: 100_000, Universe: 10_000, Alpha: 1.1, Seed: 20090629}
}

// Runner is an experiment entry point.
type Runner func(Config) *harness.Table

// All returns the experiment registry in presentation order.
func All() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"E1", E1Table1},
		{"E2", E2TailGuarantee},
		{"E3", E3SparseRecovery},
		{"E4", E4ResidualEstimation},
		{"E5", E5MSparse},
		{"E6", E6Zipf},
		{"E7", E7TopK},
		{"E8", E8Weighted},
		{"E9", E9Merge},
		{"E10", E10LowerBound},
		{"E11", E11Ablations},
		{"E12", E12Retrieval},
	}
}

// Lookup returns the runner for an experiment id, or nil.
func Lookup(id string) Runner {
	for _, e := range All() {
		if e.ID == id {
			return e.Run
		}
	}
	return nil
}

// --- shared helpers ---

// counterAlg instantiates a unit-weight counter algorithm by name.
func counterAlg(name string, m int) core.Algorithm[uint64] {
	switch name {
	case "frequent":
		return frequent.New[uint64](m)
	case "spacesaving":
		return spacesaving.New[uint64](m)
	case "spacesaving-heap":
		return spacesaving.NewHeap[uint64](m)
	case "lossycounting":
		return lossycounting.New[uint64](m)
	default:
		panic(fmt.Sprintf("experiments: unknown algorithm %q", name))
	}
}

// htcNames are the heavy-tolerant counter algorithms the paper's new
// bounds apply to.
func htcNames() []string { return []string{"frequent", "spacesaving"} }

// estimator adapts a counter algorithm to the harness metric signature.
func estimator(alg core.Algorithm[uint64]) func(uint64) float64 {
	return func(i uint64) float64 { return float64(alg.Estimate(i)) }
}

// groundTruth runs the exact counter and returns it with the dense
// frequency vector over the universe.
func groundTruth(s []uint64, universe int) (*exact.Counter, []float64) {
	truth := exact.FromStream(s)
	return truth, truth.Dense(universe)
}

// entryWords is the per-counter memory cost, in machine words, charged to
// counter algorithms in equal-space comparisons: item, count, and error
// metadata. Hash-map overhead is implementation detail and charged
// equally to all counter algorithms.
const entryWords = 3

// counterBudgetToM converts a word budget into a counter count.
func counterBudgetToM(words int) int {
	m := words / entryWords
	if m < 1 {
		m = 1
	}
	return m
}

// topKItems returns the identifiers of the k largest entries.
func topKItems[K comparable](entries []core.Entry[K], k int) []K {
	if k > len(entries) {
		k = len(entries)
	}
	out := make([]K, k)
	for i := 0; i < k; i++ {
		out[i] = entries[i].Item
	}
	return out
}

// sortedCopyDesc returns freq sorted decreasingly.
func sortedCopyDesc(freq []float64) []float64 {
	s := make([]float64, len(freq))
	copy(s, freq)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s
}
