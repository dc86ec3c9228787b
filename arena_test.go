package heavyhitters_test

// Integration tests of the arena-backed key storage (WithArena): the
// arena path must be observationally identical to the map path on the
// deterministic counter algorithms, keep ingest allocation-free, keep
// its slab footprint bounded under eviction churn, and — the point of
// the whole exercise — contribute O(1) heap objects per GC mark phase
// instead of O(m).

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	hh "repro"
	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/frequent"
	"repro/internal/spacesaving"
	"repro/internal/stream"
	"repro/internal/testutil"
)

// arenaAlgos are the backends the arena applies to.
var arenaAlgos = []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent}

// TestArenaMatchesMapPath is the differential test: the same
// deterministic algorithm fed the same stream must produce exactly the
// same counters with and without the arena — through per-item Update,
// integral-weight UpdateWeighted (AddN), and UpdateBatch (the two-pass
// AddNBatch kernel with partition hashes, on sharded summaries), all
// under eviction churn (m = 512 against a 2^16-key universe).
func TestArenaMatchesMapPath(t *testing.T) {
	s := stream.Zipf(200_000, 1.07, 1<<16, stream.OrderRandom, 7)
	keys := make([]string, len(s))
	for i, x := range s {
		keys[i] = strconv.FormatUint(x, 10)
	}
	ingests := []struct {
		name string
		feed func(hh.Summary[string])
	}{
		{"update", func(sum hh.Summary[string]) {
			for _, k := range keys {
				sum.Update(k)
			}
		}},
		{"addn", func(sum hh.Summary[string]) {
			for i, k := range keys {
				sum.UpdateWeighted(k, float64(1+i%4))
			}
		}},
		{"batch", func(sum hh.Summary[string]) {
			for lo := 0; lo < len(keys); lo += 1024 {
				sum.UpdateBatch(keys[lo:min(lo+1024, len(keys))])
			}
		}},
	}
	for _, a := range arenaAlgos {
		for _, opts := range [][]hh.Option{
			nil,
			{hh.WithWindow(32_768), hh.WithEpochs(4)},
			{hh.WithShards(4)},
		} {
			for _, in := range ingests {
				base := append([]hh.Option{hh.WithAlgorithm(a), hh.WithCapacity(512), hh.WithSeed(11)}, opts...)
				plain := hh.New[string](base...)
				arened := hh.New[string](append(base, hh.WithArena())...)
				if _, ok := arened.Memory(); !ok {
					t.Fatalf("%v %v: WithArena summary reports no arena footprint", a, opts)
				}
				if _, ok := plain.Memory(); ok {
					t.Fatalf("%v %v: map-path summary claims an arena footprint", a, opts)
				}
				in.feed(plain)
				in.feed(arened)
				if pn, an := plain.N(), arened.N(); pn != an {
					t.Fatalf("%v %v %s: N %v != %v", a, opts, in.name, pn, an)
				}
				pt, at := plain.TopAppend(nil, 512), arened.TopAppend(nil, 512)
				if len(pt) != len(at) {
					t.Fatalf("%v %v %s: tracked %d != %d", a, opts, in.name, len(pt), len(at))
				}
				for i := range pt {
					if pt[i] != at[i] {
						t.Fatalf("%v %v %s: entry %d: map %+v arena %+v", a, opts, in.name, i, pt[i], at[i])
					}
				}
				for _, e := range pt[:10] {
					plo, phi := plain.EstimateBounds(e.Item)
					alo, ahi := arened.EstimateBounds(e.Item)
					if plo != alo || phi != ahi {
						t.Fatalf("%v %v %s: bounds(%q): map [%v,%v] arena [%v,%v]", a, opts, in.name, e.Item, plo, phi, alo, ahi)
					}
				}
			}
		}
	}
	t.Run("kernels", func(t *testing.T) { arenaKernelsMatchMap(t, keys) })
}

// batchKernel is the structure-level surface the batch kernels share.
type batchKernel interface {
	AddN(item string, n uint64)
	AddNBatch(items []string, counts []uint32, hashes []uint64)
	Entries() []core.Entry[string]
}

// arenaKernelsMatchMap drives the bare structures, where AddNBatch can
// be called without partition hashes (the kernel then hashes each key
// itself): the map path, the arena path hashing in the kernel, and the
// arena path handed the partition hashes must agree entry for entry
// after every round of coalesced batches interleaved with AddN.
func arenaKernelsMatchMap(t *testing.T, keys []string) {
	const m, seed = 512, 11
	hasher := arena.NewStringIndex(1, seed) // the keyHasher family, for partition hashes
	builds := map[string]func(arenaOn bool) batchKernel{
		"spacesaving": func(arenaOn bool) batchKernel {
			s := spacesaving.New[string](m)
			if arenaOn {
				s.EnableArena(seed)
			}
			return s
		},
		"frequent": func(arenaOn bool) batchKernel {
			f := frequent.New[string](m)
			if arenaOn {
				f.EnableArena(seed)
			}
			return f
		},
	}
	for name, build := range builds {
		plain, selfHashed, handed := build(false), build(true), build(true)
		for lo := 0; lo < len(keys); lo += 1024 {
			// Coalesce the batch as the partitioner does: distinct keys in
			// first-occurrence order, with counts.
			var items []string
			var counts []uint32
			var hashes []uint64
			at := map[string]int{}
			for _, k := range keys[lo:min(lo+1024, len(keys))] {
				if i, ok := at[k]; ok {
					counts[i]++
					continue
				}
				at[k] = len(items)
				items = append(items, k)
				counts = append(counts, 1)
				hashes = append(hashes, hasher.Hash(k))
			}
			plain.AddNBatch(items, counts, nil)
			selfHashed.AddNBatch(items, counts, nil)
			handed.AddNBatch(items, counts, hashes)
			for i := 0; i < 32; i++ {
				k, n := items[(i*37)%len(items)], uint64(1+i%5)
				plain.AddN(k, n)
				selfHashed.AddN(k, n)
				handed.AddN(k, n)
			}
			want := plain.Entries()
			for side, k := range map[string]batchKernel{"self-hashed": selfHashed, "handed hashes": handed} {
				got := k.Entries()
				if len(got) != len(want) {
					t.Fatalf("%s %s after batch at %d: %d entries, map path %d", name, side, lo, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %s after batch at %d: entry %d = %+v, map path %+v", name, side, lo, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestArenaIngestZeroAllocs pins the tentpole's hot-path contract:
// string-keyed arena ingest with borrowed keys allocates nothing at
// steady state — no key clones, no clone cache, no slab growth once
// the working set's size classes are warm.
func TestArenaIngestZeroAllocs(t *testing.T) {
	s := allocStream()
	for _, a := range arenaAlgos {
		sum := hh.New[string](hh.WithAlgorithm(a), hh.WithCapacity(256),
			hh.WithArena(), hh.WithBorrowedKeys())
		var buf []byte
		feed := func(items []uint64) {
			for _, x := range items {
				// Format into a reused buffer and pass a zero-copy view:
				// exactly what the wire decoders hand the summary.
				buf = strconv.AppendUint(buf[:0], x, 10)
				sum.Update(unsafe.String(&buf[0], len(buf)))
			}
		}
		assertZeroAllocs(t, "arena-"+a.String(),
			func() { feed(s) },
			func() { feed(s[:4096]) })
	}
}

// TestLossyCountingPruneZeroAllocs drives windows of churn so prune
// evicts aggressively: the staged-deletion scratch must be reused, not
// reallocated, once it has seen the largest prune.
func TestLossyCountingPruneZeroAllocs(t *testing.T) {
	lc := hh.NewLossyCounting[uint64](64)
	feed := func(n int) {
		for i := 0; i < n; i++ {
			// A pure one-shot stream: every entry is pruned at every
			// window boundary, the worst case for the scratch slice.
			lc.Update(uint64(i) << 8)
		}
	}
	assertZeroAllocs(t, "lossycounting prune",
		func() { feed(1 << 14) },
		func() { feed(4096) })
}

// TestArenaBoundedUnderChurn is the summary-level eviction invariant:
// a small arena summary fed a Zipf stream over a vastly larger key
// universe must recycle evicted keys' slab space, not grow — measured
// through the public Memory walk.
func TestArenaBoundedUnderChurn(t *testing.T) {
	sum := hh.New[string](hh.WithCapacity(1024), hh.WithArena())
	feed := func(n, seed int) {
		for _, x := range stream.Zipf(n, 1.01, 1<<22, stream.OrderRandom, uint64(seed)) {
			sum.Update(strconv.FormatUint(x, 10))
		}
	}
	feed(200_000, 1)
	warm, ok := sum.Memory()
	if !ok {
		t.Fatal("arena summary reports no footprint")
	}
	feed(800_000, 2)
	final, _ := sum.Memory()
	if final.ArenaBytes > 2*warm.ArenaBytes {
		t.Fatalf("slabs grew under eviction churn: %d -> %d bytes", warm.ArenaBytes, final.ArenaBytes)
	}
	if final.LiveKeys != sum.Len() {
		t.Fatalf("Memory.LiveKeys %d != Len %d", final.LiveKeys, sum.Len())
	}
	if final.LiveBytes+final.FreeBytes > final.ArenaBytes {
		t.Fatalf("accounting: live %d + free %d > slabs %d", final.LiveBytes, final.FreeBytes, final.ArenaBytes)
	}
}

// heapObjectsHolding builds a summary, forces a full GC and reports
// the live-object delta it is responsible for.
func heapObjectsHolding(build func() hh.Summary[string]) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	if after.HeapObjects < before.HeapObjects {
		return 0
	}
	return after.HeapObjects - before.HeapObjects
}

// TestArenaHeapObjectsConstant is the acceptance criterion: at
// m = 1M tracked string keys, the arena path's steady-state heap is
// O(1) objects in m — slabs, slot arrays and node slices — while the
// map path owns millions (one per key string plus the map buckets).
// GC mark cost scales with objects, so this ratio is the whole
// motivation for the arena.
func TestArenaHeapObjectsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-key summaries are slow; run without -short")
	}
	if testutil.RaceEnabled {
		t.Skip("race instrumentation owns shadow allocations; object accounting is meaningless under -race")
	}
	const m = 1 << 20
	build := func(arena bool) func() hh.Summary[string] {
		return func() hh.Summary[string] {
			// BorrowedKeys on both paths: the map path clones every
			// retained key into its own heap object (what any real
			// deployment does, borrowed or not — the keys must live
			// somewhere), the arena path interns into slabs.
			opts := []hh.Option{hh.WithCapacity(m), hh.WithBorrowedKeys()}
			if arena {
				opts = append(opts, hh.WithArena())
			}
			s := hh.New[string](opts...)
			var buf []byte
			for i := 0; i < m+m/8; i++ { // past m: the eviction path runs too
				buf = append(buf[:0], "key-"...)
				buf = strconv.AppendInt(buf, int64(i), 10)
				s.Update(unsafe.String(&buf[0], len(buf)))
			}
			return s
		}
	}
	mapObjs := heapObjectsHolding(build(false))
	arenaObjs := heapObjectsHolding(build(true))
	t.Logf("m=%d: map path %d heap objects, arena path %d", m, mapObjs, arenaObjs)
	if arenaObjs*50 > mapObjs {
		t.Fatalf("arena path owns %d heap objects vs map path's %d; want <2%%", arenaObjs, mapObjs)
	}
	if arenaObjs > 20_000 {
		t.Fatalf("arena path owns %d heap objects at m=%d; want O(1) in m", arenaObjs, m)
	}
}

// TestArenaMaterializedKeysOutliveEviction pins the export-boundary
// copy: keys returned by queries must stay valid after the tracked
// entry is evicted and its slab region recycled.
func TestArenaMaterializedKeysOutliveEviction(t *testing.T) {
	sum := hh.New[string](hh.WithCapacity(64), hh.WithArena())
	for i := 0; i < 64; i++ {
		for rep := 0; rep < 64-i; rep++ {
			sum.Update(fmt.Sprintf("stable-%02d", i))
		}
	}
	top := sum.TopAppend(nil, 8)
	// Churn hard enough to evict and recycle every original region.
	for i := 0; i < 100_000; i++ {
		sum.Update(strconv.Itoa(i))
	}
	for j, e := range top {
		want := fmt.Sprintf("stable-%02d", j)
		if e.Item != want {
			t.Fatalf("exported key %d corrupted by post-query churn: %q, want %q", j, e.Item, want)
		}
	}
}
