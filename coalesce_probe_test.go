package heavyhitters

import (
	"strconv"
	"testing"
)

// meanCoalesceProbe runs one batch through the sharded backend's
// coalescing table and returns the mean probe length of a successful
// lookup (displacement from the home slot, plus one) over the distinct
// keys it holds.
func meanCoalesceProbe[K comparable](t *testing.T, keys []K) float64 {
	t.Helper()
	b := New[K](WithShards(8)).(*summary[K]).be.(*shardedBackend[K])
	sc := b.pool.Get().(*batchScratch[K]).reset()
	groupInto(sc, b.hash, keys, nil)
	held, mean := sc.tab.MeanProbe()
	if held != len(keys) {
		t.Fatalf("table holds %d groups for %d distinct keys", held, len(keys))
	}
	return mean
}

// TestCoalesceProbeLength pins the coalescing table's home-slot choice:
// sequential decimal strings — the keys an FNV-1a hash mixes worst into
// its high bits — and sequential integers must both average at most two
// probes per key in a table twice the batch size.
func TestCoalesceProbeLength(t *testing.T) {
	const n = 4096
	strs := make([]string, n)
	ints := make([]uint64, n)
	for i := range strs {
		strs[i] = strconv.Itoa(i)
		ints[i] = uint64(i)
	}
	if got := meanCoalesceProbe(t, strs); got > 2 {
		t.Errorf("decimal string keys: mean probe length %.2f, want <= 2", got)
	}
	if got := meanCoalesceProbe(t, ints); got > 2 {
		t.Errorf("uint64 keys: mean probe length %.2f, want <= 2", got)
	}
}
