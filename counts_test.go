package heavyhitters_test

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	hh "repro"
	"repro/internal/rng"
	"repro/internal/stream"
)

// TestUpdateCountsMatchesUnit is the counted-batch equivalence matrix,
// over the compositions of TestWindowBatchMatchesUnit plus decay:
// UpdateCounts must be bit-identical to unit updates of the batch that
// carries each key its count times, in pair order — replayed in
// first-occurrence-grouped order where the composition groups
// (SPACESAVING and FREQUENT: AddN(k, n) ≡ n unit updates), in pair
// order where it replays units (LOSSYCOUNTING, decay). The pair bodies
// repeat keys, as a hand-built counted body may.
func TestUpdateCountsMatchesUnit(t *testing.T) {
	str := stream.Zipf(500, 1.1, 20000, stream.OrderRandom, 5)
	src := rng.New(9)
	cnt := make([]uint32, len(str))
	for i := range cnt {
		cnt[i] = uint32(1 + src.Intn(4))
	}
	// A pair stride coprime to the epoch length forces rotation splits
	// at every possible offset, and inside groups.
	const stride = 111
	type tc struct {
		name     string
		opts     []hh.Option
		grouping bool
	}
	var cases []tc
	for _, algo := range []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent, hh.AlgoLossyCounting} {
		for _, window := range []uint64{0, 4096} {
			for _, shards := range []int{0, 4} {
				for _, arena := range []bool{false, true} {
					opts := []hh.Option{hh.WithAlgorithm(algo), hh.WithCapacity(64)}
					if window != 0 {
						opts = append(opts, hh.WithWindow(window), hh.WithEpochs(4))
					}
					if shards != 0 {
						opts = append(opts, hh.WithShards(shards))
					}
					if arena {
						opts = append(opts, hh.WithArena())
					}
					cases = append(cases, tc{
						name:     fmt.Sprintf("%v/window=%d/shards=%d/arena=%v", algo, window, shards, arena),
						opts:     opts,
						grouping: algo != hh.AlgoLossyCounting,
					})
				}
			}
		}
	}
	for _, shards := range []int{0, 4} {
		cases = append(cases, tc{
			name: fmt.Sprintf("decay/shards=%d", shards),
			opts: []hh.Option{hh.WithCapacity(64), hh.WithDecay(0.999), hh.WithShards(shards)},
		})
	}
	cases = append(cases, tc{
		name:     "spacesaving/concurrent/arena",
		opts:     []hh.Option{hh.WithCapacity(64), hh.WithConcurrent(), hh.WithArena()},
		grouping: true,
	})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runCountsUnitEquiv(t, c.opts, strKeys(str), cnt, stride, c.grouping)
		})
	}
}

// runCountsUnitEquiv feeds the pairs (str[i], cnt[i]) through
// UpdateCounts in stride-sized bodies and their expansion through unit
// updates, then requires identical N, Len, estimates and bounds.
func runCountsUnitEquiv(t *testing.T, opts []hh.Option, str []string, cnt []uint32, stride int, grouping bool) {
	t.Helper()
	unit, counted := hh.New[string](opts...), hh.New[string](opts...)
	for lo := 0; lo < len(str); lo += stride {
		hi := min(lo+stride, len(str))
		var ref []string
		for i := lo; i < hi; i++ {
			for range cnt[i] {
				ref = append(ref, str[i])
			}
		}
		if grouping {
			ref = coalesceBatch(ref)
		}
		for _, x := range ref {
			unit.Update(x)
		}
		counted.UpdateCounts(str[lo:hi], cnt[lo:hi])
	}
	if u, c := unit.N(), counted.N(); u != c {
		t.Fatalf("N: unit %v, counted %v", u, c)
	}
	if u, c := unit.Len(), counted.Len(); u != c {
		t.Fatalf("Len: unit %v, counted %v", u, c)
	}
	seen := map[string]bool{}
	for _, x := range str {
		if seen[x] {
			continue
		}
		seen[x] = true
		if u, c := unit.Estimate(x), counted.Estimate(x); u != c {
			t.Fatalf("Estimate(%v): unit %v, counted %v", x, u, c)
		}
		ulo, uhi := unit.EstimateBounds(x)
		clo, chi := counted.EstimateBounds(x)
		if ulo != clo || uhi != chi {
			t.Fatalf("EstimateBounds(%v): unit [%v,%v], counted [%v,%v]", x, ulo, uhi, clo, chi)
		}
	}
}

// TestUpdateCountsContract pins UpdateCounts' edges: repeated keys add
// up, zero counts record nothing, and the two caller errors — a count
// slice of the wrong length, one key's counts summing past 2^32−1 —
// panic before anything is recorded.
func TestUpdateCountsContract(t *testing.T) {
	for _, shards := range []int{0, 4} {
		s := hh.New[string](hh.WithCapacity(16), hh.WithShards(shards))
		s.UpdateCounts([]string{"a", "b", "a", "c"}, []uint32{2, 1, 3, 0})
		if s.N() != 6 || s.Estimate("a") != 5 || s.Estimate("c") != 0 {
			t.Fatalf("shards=%d: N %v, a %v, c %v; want 6, 5, 0", shards, s.N(), s.Estimate("a"), s.Estimate("c"))
		}
		mustPanic := func(name string, f func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("shards=%d: %s did not panic", shards, name)
				}
				if s.N() != 6 {
					t.Errorf("shards=%d: %s moved N to %v", shards, name, s.N())
				}
			}()
			f()
		}
		mustPanic("short counts", func() { s.UpdateCounts([]string{"a", "b"}, []uint32{1}) })
		mustPanic("count overflow", func() {
			s.UpdateCounts([]string{"z", "a", "a"}, []uint32{1, math.MaxUint32, 1})
		})
	}
}

// TestUpdateCountsConcurrent: counted batches from several goroutines
// at once on concurrent compositions — the wrapper's pooled grouping
// scratch (unsharded), the sharded tier's, and the unit replay
// (LOSSYCOUNTING) — lose no mass.
func TestUpdateCountsConcurrent(t *testing.T) {
	for _, opts := range [][]hh.Option{
		{hh.WithConcurrent(), hh.WithArena()},
		{hh.WithConcurrent(), hh.WithShards(4)},
		{hh.WithConcurrent(), hh.WithAlgorithm(hh.AlgoLossyCounting)},
	} {
		s := hh.New[string](append(opts, hh.WithCapacity(64))...)
		const writers, rounds = 4, 200
		done := make(chan struct{})
		for w := 0; w < writers; w++ {
			go func() {
				defer func() { done <- struct{}{} }()
				keys := []string{"a", "b", "a", "c" + strconv.Itoa(w)}
				counts := []uint32{2, 1, 3, 4}
				for range rounds {
					s.UpdateCounts(keys, counts)
				}
			}()
		}
		for range writers {
			<-done
		}
		if got, want := s.N(), float64(writers*rounds*10); got != want {
			t.Errorf("N = %v, want %v", got, want)
		}
	}
}
