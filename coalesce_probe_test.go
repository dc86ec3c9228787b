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
	sc := b.pool.Get().(*batchScratch[K])
	b.coalesceInto(sc, keys)
	mask := uint64(len(sc.tab) - 1)
	var probes, held uint64
	for i, e := range sc.tab {
		if e.gen != sc.gen {
			continue
		}
		probes += (uint64(i)-coalesceHome(e.h, sc.shift, mask))&mask + 1
		held++
	}
	if held != uint64(len(keys)) {
		t.Fatalf("table holds %d groups for %d distinct keys", held, len(keys))
	}
	return float64(probes) / float64(held)
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
