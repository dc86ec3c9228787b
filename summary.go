package heavyhitters

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"io"
	"iter"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/frequent"
	"repro/internal/lossycounting"
	"repro/internal/recovery"
	"repro/internal/sketch"
	"repro/internal/spacesaving"
)

// Summary is the unified front door of the package: one interface over
// the whole family of algorithms the paper studies — the deterministic
// counter algorithms FREQUENT, SPACESAVING and LOSSYCOUNTING, their
// real-valued Section 6.1 variants, the randomized sketch baselines of
// Table 1, and the sharded concurrent construction. Build one with New:
//
//	s := heavyhitters.New[string](
//		heavyhitters.WithAlgorithm(heavyhitters.AlgoSpaceSaving),
//		heavyhitters.WithErrorBudget(0.001, 0.01),
//	)
//
// Counts are reported as float64 throughout so that unit, integral-
// weighted and real-valued summaries share one query surface; unit
// backends count exactly (float64 is exact below 2^53).
//
// Unless constructed with WithShards or WithConcurrent, a Summary is
// not safe for concurrent use. With WithShards(p) every method is safe
// for concurrent use: items are partitioned across p independently
// locked shards, so per-item estimates and bounds retain the full
// single-shard guarantee against the item's own stream, and aggregate
// queries (Top, HeavyHitters) concatenate the shards' disjoint counter
// sets — no cross-shard merge error is introduced. WithConcurrent adds
// the lock-free read tier on top of any composition: writers keep the
// striped shard locks, while queries serve from a generation-tracked
// snapshot and never block the ingest path (see WithConcurrent for the
// bounded-staleness contract).
//
// WithWindow / WithTickWindow / WithDecay add the windowed tier: every
// query is answered over a sliding suffix of the stream (an epoch ring)
// or an exponentially fading one (decay) instead of the whole stream.
// The tiers compose — WithShards(p) with WithWindow(n) runs one epoch
// ring per shard ("shard of windows"), batch ingestion still hashing
// each key exactly once, and WithConcurrent on top of either makes the
// whole composition concurrent.
type Summary[K comparable] interface {
	// Update records one occurrence of item.
	Update(item K)
	// UpdateBatch records one occurrence of every item in items. On a
	// sharded summary the batch is partitioned first and each shard is
	// locked once, amortizing the per-update locking of the hot path.
	UpdateBatch(items []K)
	// UpdateCounts records counts[i] occurrences of items[i] for every
	// i: the occurrences of the batch that carries each items[i]
	// counts[i] times, in pair order. Keys may repeat (their counts add
	// up) and a zero count records nothing. It is the counted-batch
	// entry of the hhwire counted frame (docs/WIRE.md): compositions
	// whose n-fold update equals n unit updates group the pairs by key,
	// in first-occurrence order — the order a sharded UpdateBatch
	// applies a batch in — and apply each distinct key once, through
	// one AddN (the Section 6 identity), so the cost scales with
	// distinct keys rather than occurrences; LOSSYCOUNTING and
	// WithDecay compositions replay the unit updates in pair order. It
	// panics when len(counts) != len(items), or when one key's counts
	// within a call sum past 2^32−1 on a grouping composition (in both
	// cases before anything is recorded).
	UpdateCounts(items []K, counts []uint32)
	// UpdateWeighted records w occurrences' worth of item; w must be
	// positive. Summaries built with WithWeighted accept any positive
	// w (Section 6.1); all other backends accept integral w only and
	// panic otherwise.
	UpdateWeighted(item K, w float64)
	// Estimate returns the current point estimate of item's total
	// weight (zero if the item is not tracked).
	Estimate(item K) float64
	// EstimateBounds returns certain bounds lo ≤ f ≤ hi on item's true
	// total weight, derived from the backend's per-item error metadata.
	// For randomized sketches the bounds are the trivial determinis-
	// tically-valid ones (Count-Min: [0, estimate]; Count-Sketch:
	// [0, N]).
	EstimateBounds(item K) (lo, hi float64)
	// Top returns the k largest counters in decreasing order (fewer
	// when fewer are stored). Each call allocates a fresh slice; hot
	// paths that poll repeatedly should prefer TopAppend with a reused
	// buffer.
	Top(k int) []WeightedEntry[K]
	// TopAppend appends the k largest counters in decreasing order to
	// dst and returns the extended slice — the allocation-free variant
	// of Top: with a reused buffer (TopAppend(buf[:0], k)) of
	// sufficient capacity, unsharded counter summaries append without
	// allocating at all.
	TopAppend(dst []WeightedEntry[K], k int) []WeightedEntry[K]
	// All returns an iterator over every tracked counter in decreasing
	// count order. Unsharded counter summaries stream directly off the
	// live structure (the summary must not be updated during the
	// iteration); sharded summaries iterate over a point-in-time
	// snapshot and remain safe for concurrent use.
	All() iter.Seq[WeightedEntry[K]]
	// HeavyHitters returns every tracked item whose true weight may
	// reach phi·N, in decreasing order of upper bound, each carrying
	// its certain bounds and a Guaranteed label (lower bound already
	// clears the threshold). phi must lie in (0, 1]. Deterministic
	// counter backends sized with m > 1/phi report no false negatives.
	HeavyHitters(phi float64) []Result[K]
	// Merge combines this summary with another into a fresh summary of
	// the union of their streams (Theorem 11), with capacity
	// max(Capacity(), other.Capacity()). If both inputs carry an (A, B)
	// k-tail guarantee the result carries (3A', A'+B') for the element-
	// wise max (A', B'). Sketch-backed summaries are not mergeable.
	Merge(other Summary[K]) (Summary[K], error)
	// Recover returns the k-sparse approximation of the frequency
	// vector built from the k largest counters (Theorem 5).
	Recover(k int) map[K]float64
	// Encode writes the summary's portable state (the versioned wire
	// codec) for Decode to reconstruct. Only uint64- and string-keyed
	// counter summaries are encodable.
	Encode(w io.Writer) error
	// Algorithm reports the backing algorithm.
	Algorithm() Algo
	// Capacity returns the counter budget m (per shard when sharded;
	// the sketch row width for sketch backends).
	Capacity() int
	// Len returns the number of currently tracked items.
	Len() int
	// N returns the total processed mass Σ w_i (the stream length for
	// unit streams).
	N() float64
	// Guarantee reports the k-tail guarantee constants (A, B) of
	// Definition 2, when the backend provides one: every error is at
	// most A·F1^res(k)/(m − B·k) with m = Capacity(). The second result
	// is false for LOSSYCOUNTING and the sketches. Windowed summaries
	// report the degraded window constants (A·E, B·E) against the ring's
	// full E·m counter budget — equal to the per-epoch bound
	// A·res/(m − B·k), the honest price of rotating E epochs.
	Guarantee() (TailGuarantee, bool)
	// Memory reports the summary's arena footprint — slab and index
	// bytes attributed to tracked-key storage, summed over shards and
	// window epochs — when the summary is arena-backed (WithArena with
	// string-kind keys). The second result is false for map-backed
	// summaries, whose key storage belongs to the runtime heap and has
	// no exact per-summary attribution.
	Memory() (MemoryStats, bool)
	// Window reports the epoch-ring rotation state of a summary built
	// with WithWindow or WithTickWindow: ring size, live epochs, the
	// window granularity (items per epoch, or the covered duration)
	// and the covered stream mass (the N windowed queries are answered
	// against). The second result is false for unwindowed summaries,
	// including WithDecay ones (decay has no ring).
	Window() (WindowState, bool)
	// Reset restores the empty state, retaining configuration.
	Reset()
}

// Result is one bound-carrying answer of Summary.HeavyHitters: the item,
// its point estimate, certain bounds Lo ≤ f ≤ Hi on its true weight, and
// whether even the lower bound clears the query threshold.
type Result[K comparable] struct {
	Item       K
	Count      float64
	Lo, Hi     float64
	Guaranteed bool
}

// Instantiate the New → newBackend → tier stack for both key shapes the
// daemon serves. The compiler reports escape analysis for generic code
// only where non-generic code instantiates it, so without these
// scripts/escapecheck.sh would see none of the hot path in this package.
var (
	_ = New[string]
	_ = New[uint64]
)

// New constructs a Summary from options; see Option and Algo for the
// knobs. The zero-option call yields an unsharded SPACESAVING summary
// with 1024 counters. New panics on invalid option combinations (exactly
// as the legacy constructors panic on invalid m), so a Summary in hand
// is always usable.
func New[K comparable](opts ...Option) Summary[K] {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.resolve(); err != nil {
		panic(err)
	}
	// One hash closure serves shard placement and sketch key mapping:
	// beyond saving a hash per key on the sharded batch path, sharing
	// the closure is what makes that reuse sound for every key type —
	// the maphash fallback of keyHasher draws a random seed per
	// closure, so two separately built hashers disagree.
	hash := keyHasher[K](cfg.seed)
	mk := func(shard int) backend[K] { return newBackend[K](cfg, shard, hash) }
	var be backend[K]
	if cfg.shards > 0 {
		be = newShardedBackend(cfg.shards, cfg.coalescible(), hash, mk)
	} else {
		be = mk(0)
	}
	if cfg.concurrent {
		be = newConcurrentTier(cfg, be)
	}
	return newSummary(cfg.algo, be, hash, cfg.shards > 0, cfg.coalescible())
}

// newBackend builds the backend for one shard, layering the window or
// decay tier on top of the core structure when configured.
func newBackend[K comparable](cfg config, shard int, hash func(K) uint64) backend[K] {
	// One cloner (and one dedup cache) per shard, shared by every
	// structure the shard's composition builds — window epochs rotate
	// under the same writer, so sharing is safe and keeps a tail key's
	// clone warm across epoch boundaries.
	var cl func(K) K
	if cfg.borrowKeys {
		cl = newKeyCloner[K](cfg.m)
	}
	switch {
	case cfg.windowed():
		return newWindowBackend[K](cfg, shard, hash, cl)
	case cfg.decay > 0:
		return newDecayBackend[K](cfg, shard, hash, cl)
	default:
		return newCoreBackend[K](cfg, shard, hash, cl)
	}
}

// newCoreBackend builds the single-structure backend for one shard
// (shard indices decorrelate sketch seeds; counter algorithms ignore
// them). hash must be the same closure the sharded partitioner uses, so
// precomputed hashes handed to updateBatch match this backend's own.
// cl, when non-nil, is installed as the borrowed-key clone hook on the
// structure's retention paths (WithBorrowedKeys).
func newCoreBackend[K comparable](cfg config, shard int, hash func(K) uint64, cl func(K) K) backend[K] {
	switch {
	case cfg.algo == AlgoCountMin:
		b := &sketchBackend[K]{
			cm:    sketch.NewCountMin(cfg.depth, cfg.m, cfg.seed+uint64(shard)),
			hash:  hash, //hh:allocok hash is a keyHasher closure; its branches call only mix64/fnv1a/maphash.Comparable
			width: cfg.m,
			track: newTracker[K](cfg.m),
		}
		b.track.clone = cl
		return b
	case cfg.algo == AlgoCountSketch:
		b := &sketchBackend[K]{
			cs:    sketch.NewCountSketch(cfg.depth, cfg.m, cfg.seed+uint64(shard)),
			hash:  hash, //hh:allocok hash is a keyHasher closure; its branches call only mix64/fnv1a/maphash.Comparable
			width: cfg.m,
			track: newTracker[K](cfg.m),
		}
		b.track.clone = cl
		return b
	case cfg.weighted && cfg.algo == AlgoSpaceSaving:
		ssr := spacesaving.NewR[K](cfg.m)
		ssr.SetKeyClone(cl)
		return &weightedBackend[K]{ssr: ssr, g: TailGuarantee{A: 1, B: 1}, hasG: true}
	case cfg.weighted && cfg.algo == AlgoFrequent:
		fqr := frequent.NewR[K](cfg.m)
		fqr.SetKeyClone(cl)
		return &weightedBackend[K]{fqr: fqr, g: TailGuarantee{A: 1, B: 1}, hasG: true}
	case cfg.algo == AlgoSpaceSaving:
		ss := spacesaving.New[K](cfg.m)
		// The arena interns retained keys itself; the clone hook is only
		// for the map path (EnableArena declines non-string keys).
		if !cfg.arena || !ss.EnableArena(cfg.seed) {
			ss.SetKeyClone(cl)
		}
		return &unitBackend[K]{
			alg: ss, addN: ss.AddN, addNBatch: ss.AddNBatch,
			appendRaw: ss.AppendEntries, eachRaw: ss.Each,
			g: TailGuarantee{A: 1, B: 1}, hasG: true, over: true,
		}
	case cfg.algo == AlgoFrequent:
		fq := frequent.New[K](cfg.m)
		if !cfg.arena || !fq.EnableArena(cfg.seed) {
			fq.SetKeyClone(cl)
		}
		return &unitBackend[K]{
			alg: fq, addN: fq.AddN, addNBatch: fq.AddNBatch,
			appendRaw: fq.AppendEntries, eachRaw: fq.Each,
			g: TailGuarantee{A: 1, B: 1}, hasG: true,
		}
	case cfg.algo == AlgoLossyCounting:
		lc := lossycounting.New[K](cfg.m)
		lc.SetKeyClone(cl)
		return &unitBackend[K]{alg: lc, addN: lc.AddN, appendRaw: lc.AppendEntries}
	default:
		panic(fmt.Sprintf("heavyhitters: unhandled algorithm %v", cfg.algo))
	}
}

// backend is the internal contract the summary wrapper drives. Counts
// are float64 across the board; unit backends convert exactly.
type backend[K comparable] interface {
	//hh:noalloc
	update(item K)
	//hh:noalloc
	updateN(item K, n uint64)
	//hh:noalloc
	updateWeighted(item K, w float64)
	// updateBatch records one occurrence of every item. hashes, when
	// non-nil, carries the precomputed key hash of every item (the
	// sharded backend partitions with the same hash family the sketch
	// key mapping uses, so one hash per key serves both); backends that
	// do not hash ignore it.
	//hh:noalloc
	updateBatch(items []K, hashes []uint64)
	// updateBatchN records counts[i] occurrences of items[i] — the
	// coalesced batch: the sharded partitioner groups a batch's
	// duplicate keys and hands each shard one entry per distinct key.
	// Keys must be pairwise distinct and counts non-nil with
	// len(counts) == len(items); counts is caller scratch and may be
	// mutated (the window tier splits groups at rotation boundaries in
	// place). hashes follows the updateBatch contract. Equivalent to
	// calling updateN(items[i], counts[i]) in order.
	//hh:noalloc
	updateBatchN(items []K, counts []uint32, hashes []uint64)
	//hh:noalloc
	estimate(item K) float64
	//hh:noalloc
	bounds(item K) (lo, hi float64)
	// appendEntries appends the stored counters in decreasing count
	// order to dst — all of them, or the top max when max >= 0 — and
	// returns the extended slice; Err is meaningful per overEst. It is
	// the single snapshot primitive behind Top, TopAppend, All, Merge,
	// Recover and the codec: with a reused buffer, unsharded counter
	// backends append without allocating.
	//hh:noalloc
	appendEntries(dst []WeightedEntry[K], max int) []WeightedEntry[K]
	// each yields the stored counters in decreasing count order,
	// streaming off the live structure where the backend maintains one
	// (the bucket-list counters) and snapshotting first where it does
	// not (sharded, heap- or map-backed state).
	//hh:noalloc
	each(yield func(WeightedEntry[K]) bool)
	capacity() int
	length() int
	total() float64
	guarantee() (TailGuarantee, bool)
	// mergeable reports whether the counter state is a faithful,
	// refeedable summary (counter algorithms yes, sketches no).
	mergeable() bool
	// overEst reports whether entry Err fields are certain per-item
	// overestimation bounds (the SPACESAVING convention c − ε ≤ f ≤ c).
	overEst() bool
	// slackOut is the global upper slack to carry into merges and
	// encodes: every tracked item's true weight is at most its count
	// plus this (zero for overestimating backends).
	slackOut() float64
	// absentExtra is the additional upper bound on an item this backend
	// does not track, beyond slackOut — for SPACESAVING-family state
	// this is the minimum counter Δ (an evicted or never-stored item's
	// weight cannot exceed it). Merges and encodes must carry it: an
	// item absent here may be present in the merged result, whose upper
	// bound then owes this backend's possible unseen mass.
	absentExtra() float64
	// windowState is the rotation/epoch contract of the window tier:
	// the epoch-ring state when this backend answers over a sliding
	// window, false for whole-stream (and decayed) backends. Tick
	// windows expire aged epochs before reporting.
	windowState() (WindowState, bool)
	//hh:noalloc
	reset()
}

// summary adapts a backend to the public Summary interface.
type summary[K comparable] struct {
	algo Algo
	be   backend[K]

	// UpdateCounts plumbing. A sharded composition groups counted pairs
	// in its own partition pass; an unsharded one is grouped here, in
	// one-bucket scratch taken per call, because a WithConcurrent
	// summary takes counted batches from many goroutines and the
	// grouping runs before the write lock. hash is the composition's key
	// hash (the closure the backends share), so grouped hashes feed the
	// arena kernels unchanged.
	hash     func(K) uint64 //hh:noalloc
	sharded  bool
	coalesce bool
	scratch  parkedPool[batchScratch[K]]
}

// newSummary wraps be. hash must be the composition's key hash;
// sharded and coalesce describe the composition (see UpdateCounts).
func newSummary[K comparable](algo Algo, be backend[K], hash func(K) uint64, sharded, coalesce bool) *summary[K] {
	//hh:allocok hash is a keyHasher closure; its branches call only mix64/fnv1a/maphash.Comparable
	s := &summary[K]{algo: algo, be: be, hash: hash, sharded: sharded, coalesce: coalesce}
	s.scratch.pool.New = func() any { return newBatchScratch[K](1) }
	return s
}

//hh:noalloc
func (s *summary[K]) Update(item K) { s.be.update(item) }

//hh:noalloc
func (s *summary[K]) UpdateBatch(items []K) { s.be.updateBatch(items, nil) }

//hh:noalloc
func (s *summary[K]) UpdateCounts(items []K, counts []uint32) {
	if len(counts) != len(items) {
		panic("heavyhitters: UpdateCounts needs exactly one count per item")
	}
	switch {
	case len(items) == 0:
	case !s.coalesce:
		// Unit replay in pair order, through the per-arrival path.
		for i, it := range items {
			for c := counts[i]; c > 0; c-- {
				s.be.update(it)
			}
		}
	case s.sharded:
		// The sharded tier partitions and groups in one pass.
		s.be.updateBatchN(items, counts, nil)
	default:
		g := s.scratch.get().reset()
		groupInto(g, s.hash, items, counts)
		if len(g.keys[0]) > 0 {
			s.be.updateBatchN(g.keys[0], g.counts[0], g.hashes[0])
		}
		g.dropKeys()
		s.scratch.put(g)
	}
}

// addCount adds a pair's count to its group's, refusing to wrap: one
// key's counts in one counted batch must sum below 2^32 (the hhwire
// counted frame bounds its whole sum far lower).
//
//hh:noalloc
func addCount(sum, c uint32) uint32 {
	if sum+c < c {
		panic("heavyhitters: UpdateCounts: one key's counts sum past 2^32-1")
	}
	return sum + c
}

//hh:noalloc
func (s *summary[K]) UpdateWeighted(item K, w float64) {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		// A NaN or infinite weight would silently poison the total mass
		// and every threshold derived from it.
		panic("heavyhitters: non-finite weight")
	}
	if w <= 0 {
		panic("heavyhitters: non-positive weight")
	}
	s.be.updateWeighted(item, w)
}

//hh:noalloc
func (s *summary[K]) Estimate(item K) float64 { return s.be.estimate(item) }

//hh:noalloc
func (s *summary[K]) EstimateBounds(item K) (lo, hi float64) { return s.be.bounds(item) }
func (s *summary[K]) Algorithm() Algo                        { return s.algo }
func (s *summary[K]) Capacity() int                          { return s.be.capacity() }
func (s *summary[K]) Len() int                               { return s.be.length() }
func (s *summary[K]) N() float64                             { return s.be.total() }
func (s *summary[K]) Guarantee() (TailGuarantee, bool)       { return s.be.guarantee() }
func (s *summary[K]) Window() (WindowState, bool)            { return s.be.windowState() }

//hh:noalloc
func (s *summary[K]) Reset() { s.be.reset() }

func (s *summary[K]) Top(k int) []WeightedEntry[K] {
	if k <= 0 {
		return nil
	}
	return s.be.appendEntries(nil, k)
}

//hh:noalloc
func (s *summary[K]) TopAppend(dst []WeightedEntry[K], k int) []WeightedEntry[K] {
	if k <= 0 {
		return dst
	}
	return s.be.appendEntries(dst, k)
}

func (s *summary[K]) All() iter.Seq[WeightedEntry[K]] {
	return func(yield func(WeightedEntry[K]) bool) { s.be.each(yield) }
}

func (s *summary[K]) HeavyHitters(phi float64) []Result[K] {
	if phi <= 0 || phi > 1 {
		panic("heavyhitters: phi must be in (0, 1]")
	}
	// Pin one consistent view for the whole query: on a concurrent
	// summary the threshold, the enumeration and every bound then come
	// from the same snapshot even while writers race.
	be := pinned(s.be)
	threshold := phi * be.total()
	var out []Result[K]
	be.each(func(e WeightedEntry[K]) bool {
		lo, hi := be.bounds(e.Item)
		if hi >= threshold {
			out = append(out, Result[K]{
				Item:       e.Item,
				Count:      e.Count,
				Lo:         lo,
				Hi:         hi,
				Guaranteed: lo >= threshold,
			})
		}
		return true
	})
	slices.SortStableFunc(out, func(a, b Result[K]) int {
		return cmp.Compare(b.Hi, a.Hi)
	})
	return out
}

func (s *summary[K]) Recover(k int) map[K]float64 {
	return recovery.KSparseWeighted(s.be.appendEntries(nil, max(k, 0)), k)
}

func (s *summary[K]) Merge(other Summary[K]) (Summary[K], error) {
	m := s.Capacity()
	if oc := other.Capacity(); oc > m {
		m = oc
	}
	return MergeSummaries(m, s, other)
}

func (s *summary[K]) String() string {
	return fmt.Sprintf("heavyhitters.Summary{algo: %v, m: %d, n: %.0f}", s.algo, s.be.capacity(), s.be.total())
}

// --- unit counter backend (SPACESAVING / FREQUENT / LOSSYCOUNTING) ---

type unitBackend[K comparable] struct {
	alg  Counter[K]
	addN func(K, uint64) //hh:noalloc -- native integral-weight path; nil = repeat Update
	// addNBatch is the structure's two-pass coalesced-batch kernel
	// (AddNBatch on SPACESAVING/FREQUENT): hash/probe all keys into
	// scratch first, then apply — restoring the memory-level parallelism
	// the one-at-a-time probe loop serializes away. nil = repeat updateN.
	//hh:noalloc
	addNBatch func(items []K, counts []uint32, hashes []uint64)
	// appendRaw is the backend's allocation-free snapshot primitive
	//hh:noalloc
	// (AppendEntries on the concrete structure): counters appended in
	// decreasing order, truncated to max when max >= 0.
	appendRaw func([]Entry[K], int) []Entry[K]
	//hh:noalloc
	// eachRaw streams counters in decreasing order straight off the live
	// structure; nil when the structure has no sorted iteration order
	// (LOSSYCOUNTING's hash map), in which case each buffers through
	// scratch.
	eachRaw func(func(Entry[K]) bool)
	// scratch is reused across appendEntries/each calls so steady-state
	// queries into a caller-reused buffer allocate nothing. Unsharded
	// summaries are single-threaded by contract, so a single buffer is
	// safe.
	scratch []Entry[K]
	g       TailGuarantee
	hasG    bool
	over    bool // SPACESAVING convention: Err fields are overestimate bounds
}

//hh:noalloc
func (b *unitBackend[K]) update(item K) { b.alg.Update(item) }

//hh:noalloc
func (b *unitBackend[K]) updateN(item K, n uint64) {
	if b.addN != nil {
		b.addN(item, n)
		return
	}
	for i := uint64(0); i < n; i++ {
		b.alg.Update(item)
	}
}

//hh:noalloc
func (b *unitBackend[K]) updateWeighted(item K, w float64) {
	if w != math.Trunc(w) {
		panic("heavyhitters: this backend accepts integral weights only; construct with WithWeighted() for real-valued updates")
	}
	if w >= 1<<64 {
		// uint64(w) would be implementation-defined, silently corrupting
		// the counts.
		panic("heavyhitters: integral weight overflows uint64")
	}
	b.updateN(item, uint64(w))
}

//hh:noalloc
func (b *unitBackend[K]) updateBatch(items []K, _ []uint64) {
	for _, it := range items {
		b.alg.Update(it)
	}
}

//hh:noalloc
func (b *unitBackend[K]) updateBatchN(items []K, counts []uint32, hashes []uint64) {
	if b.addNBatch != nil {
		b.addNBatch(items, counts, hashes)
		return
	}
	for i, it := range items {
		b.updateN(it, uint64(counts[i]))
	}
}

//hh:noalloc
func (b *unitBackend[K]) estimate(item K) float64 { return float64(b.alg.Estimate(item)) }

//hh:noalloc
func (b *unitBackend[K]) bounds(item K) (float64, float64) {
	lo, hi := EstimateBounds(b.alg, item)
	return float64(lo), float64(hi)
}

//hh:noalloc
func (b *unitBackend[K]) appendEntries(dst []WeightedEntry[K], max int) []WeightedEntry[K] {
	b.scratch = b.appendRaw(b.scratch[:0], max)
	for _, e := range b.scratch {
		dst = append(dst, WeightedEntry[K]{Item: e.Item, Count: float64(e.Count), Err: float64(e.Err)})
	}
	return dst
}

//hh:noalloc
func (b *unitBackend[K]) each(yield func(WeightedEntry[K]) bool) {
	if b.eachRaw != nil {
		b.eachRaw(func(e Entry[K]) bool {
			return yield(WeightedEntry[K]{Item: e.Item, Count: float64(e.Count), Err: float64(e.Err)})
		})
		return
	}
	// No sorted live order: snapshot, then yield. The buffer is detached
	// from the backend while user code runs so a nested query cannot
	// clobber the iteration.
	buf := b.appendRaw(b.scratch[:0], -1)
	b.scratch = nil
	for _, e := range buf {
		if !yield(WeightedEntry[K]{Item: e.Item, Count: float64(e.Count), Err: float64(e.Err)}) {
			break
		}
	}
	b.scratch = buf
}

func (b *unitBackend[K]) capacity() int                    { return b.alg.Capacity() }
func (b *unitBackend[K]) length() int                      { return b.alg.Len() }
func (b *unitBackend[K]) total() float64                   { return float64(b.alg.N()) }
func (b *unitBackend[K]) guarantee() (TailGuarantee, bool) { return b.g, b.hasG }
func (b *unitBackend[K]) mergeable() bool                  { return true }
func (b *unitBackend[K]) overEst() bool                    { return b.over }
func (b *unitBackend[K]) windowState() (WindowState, bool) { return WindowState{}, false }

//hh:noalloc
func (b *unitBackend[K]) reset() { b.alg.Reset() }

func (b *unitBackend[K]) slackOut() float64 {
	switch alg := any(b.alg).(type) {
	case *spacesaving.StreamSummary[K]:
		return 0
	case *frequent.Frequent[K]:
		return float64(alg.Decrements())
	case *lossycounting.LossyCounting[K]:
		w := uint64(alg.Capacity())
		return float64((alg.N() + w - 1) / w)
	default:
		return 0
	}
}

func (b *unitBackend[K]) absentExtra() float64 {
	// FREQUENT's d and LOSSYCOUNTING's ⌈N/w⌉ already bound absent items
	// and travel via slackOut; SPACESAVING's absent bound is Δ.
	if mc, ok := any(b.alg).(interface{ MinCount() uint64 }); ok {
		return float64(mc.MinCount())
	}
	return 0
}

// --- weighted counter backend (SPACESAVINGR / FREQUENTR, Section 6.1) ---

// weightedBackend also backs merged and decoded summaries: slack is the
// global upper-slack inherited from underestimating or multiply-sourced
// inputs, so bounds remain certain after Merge/Encode/Decode.
type weightedBackend[K comparable] struct {
	ssr   *spacesaving.R[K]
	fqr   *frequent.FrequentR[K]
	slack float64
	g     TailGuarantee
	hasG  bool
	// absentSlack widens the upper bound of absent items only: a decoded
	// summary owes its producer's minimum counter Δ — an item the
	// producer evicted can weigh up to Δ even though the reconstruction
	// never saw it.
	absentSlack float64
	// extraMass is processed stream mass not present in any stored
	// counter: a FREQUENT or LOSSYCOUNTING producer's stored counts
	// undercount its stream, so a decoded or merged reconstruction must
	// carry the difference separately for N() — and hence the phi·N
	// thresholds of HeavyHitters — to match the producers'.
	extraMass float64
	// deficit cache for the FREQUENTR flavor, keyed by the monotone
	// total weight (bounds are queried once per stored entry by
	// HeavyHitters; recomputing the O(m) deficit each time would make
	// the query O(m²)).
	defCache, defCacheAt float64
	// scratch is reused across each calls; see unitBackend.scratch.
	scratch []WeightedEntry[K]
}

//hh:noalloc
func (b *weightedBackend[K]) alg() WeightedCounter[K] {
	if b.ssr != nil {
		return b.ssr
	}
	return b.fqr
}

//hh:noalloc
func (b *weightedBackend[K]) update(item K) { b.alg().UpdateWeighted(item, 1) }

//hh:noalloc
func (b *weightedBackend[K]) updateN(item K, n uint64) {
	if n > 0 {
		b.alg().UpdateWeighted(item, float64(n))
	}
}

//hh:noalloc
func (b *weightedBackend[K]) updateWeighted(item K, w float64) { b.alg().UpdateWeighted(item, w) }

//hh:noalloc
func (b *weightedBackend[K]) updateBatch(items []K, _ []uint64) {
	a := b.alg()
	for _, it := range items {
		a.UpdateWeighted(it, 1)
	}
}

// updateBatchN applies each coalesced group as one weighted arrival —
// sound because UpdateWeighted(k, n) ≡ n unit arrivals for integral n
// (Section 6.1 reduces to the integral semantics on whole weights).
//
//hh:noalloc
func (b *weightedBackend[K]) updateBatchN(items []K, counts []uint32, _ []uint64) {
	a := b.alg()
	for i, it := range items {
		if counts[i] > 0 {
			a.UpdateWeighted(it, float64(counts[i]))
		}
	}
}

//hh:noalloc
func (b *weightedBackend[K]) estimate(item K) float64 { return b.alg().EstimateWeighted(item) }

// deficit is the total undercounted mass of a FREQUENTR structure: the
// processed weight not present in any stored counter. Every item's
// undercount is at most this. The O(m) scan is cached against the
// monotone total weight, so repeated bounds queries between updates
// (HeavyHitters) pay it once.
//
//hh:noalloc
func (b *weightedBackend[K]) deficit() float64 {
	total := b.fqr.TotalWeight()
	if total == b.defCacheAt && total != 0 {
		return b.defCache
	}
	d := total - b.fqr.StoredWeight()
	if d < 0 {
		d = 0
	}
	b.defCache, b.defCacheAt = d, total
	return d
}

//hh:noalloc
func (b *weightedBackend[K]) bounds(item K) (float64, float64) {
	if b.ssr != nil {
		c := b.ssr.EstimateWeighted(item)
		if c == 0 {
			return 0, b.ssr.MinCount() + b.slack + b.absentSlack
		}
		lo := c - b.ssr.ErrorOf(item)
		if lo < 0 {
			lo = 0
		}
		return lo, c + b.slack
	}
	c := b.fqr.EstimateWeighted(item)
	d := b.deficit()
	if c == 0 {
		return 0, d + b.slack
	}
	return c, c + d + b.slack
}

//hh:noalloc
func (b *weightedBackend[K]) appendEntries(dst []WeightedEntry[K], max int) []WeightedEntry[K] {
	if b.ssr != nil {
		return b.ssr.AppendWeightedEntries(dst, max)
	}
	return b.fqr.AppendWeightedEntries(dst, max)
}

//hh:noalloc
func (b *weightedBackend[K]) each(yield func(WeightedEntry[K]) bool) {
	// Heap- and map-backed storage has no sorted live order: snapshot,
	// then yield. The buffer is detached from the backend while user
	// code runs so a nested query cannot clobber the iteration.
	buf := b.appendEntries(b.scratch[:0], -1)
	b.scratch = nil
	for _, e := range buf {
		if !yield(e) {
			break
		}
	}
	b.scratch = buf
}

func (b *weightedBackend[K]) capacity() int                    { return b.alg().Capacity() }
func (b *weightedBackend[K]) length() int                      { return b.alg().Len() }
func (b *weightedBackend[K]) total() float64                   { return b.alg().TotalWeight() + b.extraMass }
func (b *weightedBackend[K]) guarantee() (TailGuarantee, bool) { return b.g, b.hasG }
func (b *weightedBackend[K]) mergeable() bool                  { return true }
func (b *weightedBackend[K]) overEst() bool                    { return b.ssr != nil }
func (b *weightedBackend[K]) windowState() (WindowState, bool) { return WindowState{}, false }

func (b *weightedBackend[K]) slackOut() float64 {
	if b.ssr != nil {
		return b.slack
	}
	return b.slack + b.deficit()
}

func (b *weightedBackend[K]) absentExtra() float64 {
	if b.ssr != nil {
		return b.ssr.MinCount() + b.absentSlack
	}
	return 0 // the FREQUENTR deficit travels via slackOut
}

// carryExtraMass records the stream mass the refed counters undercount:
// produced is the producers' true total N, of which only the absorbed
// counter sum (ssr.TotalWeight()) landed in storage — the shortfall of
// an undercounting (FREQUENT/LOSSYCOUNTING) producer. Negative
// differences are float noise from re-summing overestimating counters
// in a different order and carry nothing.
func (b *weightedBackend[K]) carryExtraMass(produced float64) {
	if extra := produced - b.ssr.TotalWeight(); extra > 0 {
		b.extraMass = extra
	}
}

//hh:noalloc
func (b *weightedBackend[K]) reset() {
	b.alg().Reset()
	b.slack, b.absentSlack, b.extraMass = 0, 0, 0
	b.defCache, b.defCacheAt = 0, 0
}

// --- sharded backend (items partitioned across locked shards) ---

type shardSlot[K comparable] struct {
	mu sync.Mutex
	be backend[K] //hh:guardedby mu
	// Padding to keep shard locks on distinct cache lines.
	_ [40]byte
}

type shardedBackend[K comparable] struct {
	slots []shardSlot[K]
	hash  func(K) uint64 //hh:noalloc
	// coalesce gates in-batch duplicate grouping: updateBatch merges a
	// batch's repeated keys into one (key, count) group per shard and
	// applies each group as one AddN — lossless by the Section-6
	// integer-weight equivalence (AddN(k, n) ≡ n unit updates), and
	// O(distinct) probes instead of O(batch) on skewed streams. Off for
	// compositions whose n-fold update is not bit-identical to n unit
	// updates: decay (the clock advances once per *arrival*, so a
	// coalesced group would tick time by 1 instead of n) and
	// LOSSYCOUNTING (AddN deliberately skips mid-batch prune/re-insert
	// of the added item, so it can exceed the unit-loop state). See
	// config.coalescible.
	coalesce bool
	// scratch hands each UpdateBatch in flight its partition buffers,
	// so steady-state batch ingestion performs no per-batch bucket
	// allocations.
	scratch parkedPool[batchScratch[K]]
	// mergeScratch recycles the run-merge workspace of aggregate queries
	// (one per concurrent appendEntries in flight).
	mergeScratch parkedPool[shardMergeScratch[K]]
}

// shardMergeScratch is the reusable workspace of one sharded
// appendEntries call: the ping-pong buffer and run boundaries of the
// sorted-run merge.
type shardMergeScratch[K comparable] struct {
	buf     []WeightedEntry[K]
	bounds  []int
	bounds2 []int
}

// batchScratch is the reusable partition workspace of one UpdateBatch
// or counted-batch call: per-shard key buckets plus each key's hash,
// computed once and reused by hashing backends for their row hashes,
// and — when the composition coalesces, or the batch is counted —
// per-group occurrence counts, grouped through the shared coalescing
// table (internal/coalesce).
type batchScratch[K comparable] struct {
	keys   [][]K
	hashes [][]uint64
	counts [][]uint32
	tab    coalesce.Table
}

func newBatchScratch[K comparable](p int) *batchScratch[K] {
	return &batchScratch[K]{
		keys:   make([][]K, p),
		hashes: make([][]uint64, p),
		counts: make([][]uint32, p),
	}
}

// reset empties every bucket and returns sc.
//
//hh:noalloc
func (sc *batchScratch[K]) reset() *batchScratch[K] {
	for i := range sc.keys {
		sc.keys[i] = sc.keys[i][:0]
		sc.hashes[i] = sc.hashes[i][:0]
		sc.counts[i] = sc.counts[i][:0]
	}
	return sc
}

// dropKeys clears the buckets' key references before sc is parked, so
// a parked workspace cannot pin the previous batch's keys (or a
// borrowed frame buffer) in memory.
//
//hh:noalloc
func (sc *batchScratch[K]) dropKeys() {
	for i := range sc.keys {
		clear(sc.keys[i])
	}
}

// parkedPool recycles one kind of workspace. One workspace is parked
// where a garbage collection cannot drain it, so a lone caller never
// allocates, not even right after a GC has emptied every sync.Pool;
// only a caller that finds it taken by a concurrent one falls back to
// the pool, whose New builds a fresh workspace.
type parkedPool[T any] struct {
	parked atomic.Pointer[T]
	pool   sync.Pool // *T
}

// get takes the parked workspace, or a pooled one when a concurrent
// caller holds it.
//
//hh:noalloc
func (p *parkedPool[T]) get() *T {
	if x := p.parked.Swap(nil); x != nil {
		return x
	}
	return p.pool.Get().(*T)
}

// put parks x, or pools it when another workspace is parked already.
//
//hh:noalloc
func (p *parkedPool[T]) put(x *T) {
	if !p.parked.CompareAndSwap(nil, x) {
		p.pool.Put(x)
	}
}

func newShardedBackend[K comparable](p int, coalesce bool, hash func(K) uint64, mk func(int) backend[K]) *shardedBackend[K] {
	//hh:allocok hash is a keyHasher closure; its branches call only mix64/fnv1a/maphash.Comparable
	b := &shardedBackend[K]{slots: make([]shardSlot[K], p), hash: hash, coalesce: coalesce}
	for i := range b.slots {
		b.slots[i].be = mk(i)
	}
	b.scratch.pool.New = func() any { return newBatchScratch[K](p) }
	b.mergeScratch.pool.New = func() any { return &shardMergeScratch[K]{} }
	return b
}

//hh:noalloc
func (b *shardedBackend[K]) slot(item K) *shardSlot[K] {
	return &b.slots[b.hash(item)%uint64(len(b.slots))]
}

//hh:noalloc
func (b *shardedBackend[K]) update(item K) {
	sl := b.slot(item)
	sl.mu.Lock()
	sl.be.update(item)
	sl.mu.Unlock()
}

//hh:noalloc
func (b *shardedBackend[K]) updateN(item K, n uint64) {
	sl := b.slot(item)
	sl.mu.Lock()
	sl.be.updateN(item, n)
	sl.mu.Unlock()
}

//hh:noalloc
func (b *shardedBackend[K]) updateWeighted(item K, w float64) {
	sl := b.slot(item)
	sl.mu.Lock()
	sl.be.updateWeighted(item, w)
	sl.mu.Unlock()
}

// updateBatch partitions the batch once, then visits each shard exactly
// once under its lock — the amortization that makes batch ingestion the
// fast path on sharded summaries. Each key is hashed exactly once: the
// partition hash doubles as the key hash of sketch backends (both are
// keyHasher(seed)), and the buckets live in reused scratch buffers.
// Coalescing compositions additionally group the batch's duplicate keys
// during partitioning and apply each group as one AddN — updateBatchN
// with every count 1; see the coalesce field for its soundness
// argument.
//
//hh:noalloc
func (b *shardedBackend[K]) updateBatch(items []K, _ []uint64) {
	if len(items) == 0 {
		return
	}
	if b.coalesce {
		b.updateBatchN(items, nil, nil)
		return
	}
	p := uint64(len(b.slots))
	if p == 1 {
		sl := &b.slots[0]
		sl.mu.Lock()
		sl.be.updateBatch(items, nil)
		sl.mu.Unlock()
		return
	}
	sc := b.scratch.get().reset()
	for _, it := range items {
		h := b.hash(it)
		i := h % p
		sc.keys[i] = append(sc.keys[i], it)
		sc.hashes[i] = append(sc.hashes[i], h)
	}
	for i := range sc.keys {
		if len(sc.keys[i]) == 0 {
			continue
		}
		sl := &b.slots[i]
		sl.mu.Lock()
		sl.be.updateBatch(sc.keys[i], sc.hashes[i])
		sl.mu.Unlock()
	}
	sc.dropKeys()
	b.scratch.put(sc)
}

// updateBatchN is the grouped batch path: partition the pairs across
// the shard buckets while merging each shard's duplicate keys
// (groupInto), then apply each shard's distinct groups through one
// updateBatchN — AddNBatch on the counter structures — under one lock
// round. It takes repeated keys, and counts nil means every item
// occurs once (UpdateBatch); hashes is ignored, since the partition
// pass hashes every key itself. Only coalescing compositions reach it:
// Summary.UpdateCounts replays unit updates on the others.
//
//hh:noalloc
func (b *shardedBackend[K]) updateBatchN(items []K, counts []uint32, _ []uint64) {
	sc := b.scratch.get().reset()
	groupInto(sc, b.hash, items, counts)
	for i := range sc.keys {
		if len(sc.keys[i]) == 0 {
			continue
		}
		sl := &b.slots[i]
		sl.mu.Lock()
		sl.be.updateBatchN(sc.keys[i], sc.counts[i], sc.hashes[i])
		sl.mu.Unlock()
	}
	sc.dropKeys()
	b.scratch.put(sc)
}

// groupInto partitions items across the len(sc.keys) buckets of sc
// (bucket h mod p: the shard) while grouping duplicate keys: each
// distinct key lands in its bucket once, in first-occurrence order,
// with counts carrying its summed occurrences (1 per item when counts
// is nil; zero counts are skipped). The grouping table
// (internal/coalesce) probes from the hash's well-mixed end, confirms
// candidate identity by comparing the full hash and then the key
// itself (a colliding hash never merges distinct keys), and stores each
// group's index inside its bucket — the bucket re-derives from h. It
// grows to the high-water batch size and is reused with the buckets,
// so the steady state allocates nothing.
//
//hh:noalloc
func groupInto[K comparable](sc *batchScratch[K], hash func(K) uint64, items []K, counts []uint32) {
	sc.tab.Reset(len(items), lowBitsHash[K]())
	p := uint64(len(sc.keys))
	for i, it := range items {
		c := uint32(1)
		if counts != nil {
			if c = counts[i]; c == 0 {
				continue
			}
		}
		h := hash(it)
		si := h % p
		if g, ok := coalesce.Find(&sc.tab, h, it, sc.keys[si]); ok {
			sc.counts[si][g] = addCount(sc.counts[si][g], c)
			continue
		}
		sc.keys[si] = append(sc.keys[si], it)
		sc.hashes[si] = append(sc.hashes[si], h)
		sc.counts[si] = append(sc.counts[si], c)
	}
}

//hh:noalloc
func (b *shardedBackend[K]) estimate(item K) float64 {
	sl := b.slot(item)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.be.estimate(item)
}

//hh:noalloc
func (b *shardedBackend[K]) bounds(item K) (float64, float64) {
	sl := b.slot(item)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.be.bounds(item)
}

// appendEntries concatenates the shards' disjoint counter sets. Shards
// are locked one at a time, so under concurrent updates the snapshot
// reflects consistent per-shard states, not one global instant. The
// global top-max needs every shard's counters, so all of them are
// appended before truncation — but each shard's run is already in
// decreasing order, so the global order comes from a stable merge of
// the runs (n·log p moves through pooled scratch) rather than
// re-sorting the concatenation, which profiled as the dominant cost of
// aggregate queries and concurrency-tier snapshot rebuilds.
//
//hh:noalloc
func (b *shardedBackend[K]) appendEntries(dst []WeightedEntry[K], max int) []WeightedEntry[K] {
	if max == 0 {
		return dst
	}
	start := len(dst)
	sc := b.mergeScratch.get()
	bounds := append(sc.bounds[:0], 0)
	for i := range b.slots {
		sl := &b.slots[i]
		sl.mu.Lock()
		dst = sl.be.appendEntries(dst, -1)
		sl.mu.Unlock()
		bounds = append(bounds, len(dst)-start)
	}
	var buf []WeightedEntry[K]
	buf, sc.bounds, sc.bounds2 = mergeSortedRuns(dst[start:], sc.buf, bounds, sc.bounds2)
	// Drop entry references (string keys) before pooling, so a parked
	// scratch buffer cannot pin the previous query's keys in memory.
	buf = buf[:cap(buf)]
	clear(buf)
	sc.buf = buf[:0]
	b.mergeScratch.put(sc)
	if max > 0 && len(dst)-start > max {
		dst = dst[:start+max]
	}
	return dst
}

// mergeSortedRuns sorts data — the concatenation of runs that are each
// already in decreasing count order, with run i spanning
// data[bounds[i]:bounds[i+1]] — by merging the runs pairwise,
// ping-ponging between data's storage and buf. Ties keep the earlier
// run's entries first, so the result is identical to a stable sort of
// the concatenation. Returns the (possibly grown) scratch buffer and
// boundary slices for pooling; data holds the sorted result.
//
//hh:noalloc
func mergeSortedRuns[K comparable](data, buf []WeightedEntry[K], bounds, bounds2 []int) ([]WeightedEntry[K], []int, []int) {
	src, out := data, buf
	bs, bo := bounds, bounds2
	inData := true
	for len(bs) > 2 {
		out = out[:0]
		bo = append(bo[:0], 0)
		i := 0
		for ; i+2 < len(bs); i += 2 {
			out = mergeTwoRuns(out, src[bs[i]:bs[i+1]], src[bs[i+1]:bs[i+2]])
			bo = append(bo, len(out))
		}
		if i+1 < len(bs) {
			// Odd run count: carry the last run into this round's output.
			out = append(out, src[bs[i]:bs[i+1]]...)
			bo = append(bo, len(out))
		}
		src, out = out, src[:0]
		bs, bo = bo, bs
		inData = !inData
	}
	if !inData {
		copy(data, src)
		return src, bs, bo
	}
	return out, bs, bo
}

// mergeTwoRuns merges two decreasing-order runs into dst, preferring a
// on ties (stability: a is the earlier run).
//
//hh:noalloc
func mergeTwoRuns[K comparable](dst []WeightedEntry[K], a, b []WeightedEntry[K]) []WeightedEntry[K] {
	for len(a) > 0 && len(b) > 0 {
		if b[0].Count > a[0].Count {
			dst = append(dst, b[0])
			b = b[1:]
		} else {
			dst = append(dst, a[0])
			a = a[1:]
		}
	}
	dst = append(dst, a...)
	return append(dst, b...)
}

// each snapshots first (a sharded summary is concurrent: yielding under
// a shard lock could deadlock a consumer that queries the summary), then
// yields from the private snapshot.
//
//hh:noalloc
func (b *shardedBackend[K]) each(yield func(WeightedEntry[K]) bool) {
	for _, e := range b.appendEntries(nil, -1) {
		if !yield(e) {
			return
		}
	}
}

// The four config accessors below read shard 0's backend without its
// lock: backend wiring and configuration are set once at construction
// and never reassigned, so the reads race with nothing.

//hh:unguarded backend wiring is construction-time constant
func (b *shardedBackend[K]) capacity() int { return b.slots[0].be.capacity() }

func (b *shardedBackend[K]) length() int {
	n := 0
	for i := range b.slots {
		sl := &b.slots[i]
		sl.mu.Lock()
		n += sl.be.length()
		sl.mu.Unlock()
	}
	return n
}

func (b *shardedBackend[K]) total() float64 {
	var t float64
	for i := range b.slots {
		sl := &b.slots[i]
		sl.mu.Lock()
		t += sl.be.total()
		sl.mu.Unlock()
	}
	return t
}

//hh:unguarded backend wiring is construction-time constant
func (b *shardedBackend[K]) guarantee() (TailGuarantee, bool) { return b.slots[0].be.guarantee() }

//hh:unguarded backend wiring is construction-time constant
func (b *shardedBackend[K]) mergeable() bool { return b.slots[0].be.mergeable() }

//hh:unguarded backend wiring is construction-time constant
func (b *shardedBackend[K]) overEst() bool { return b.slots[0].be.overEst() }

func (b *shardedBackend[K]) slackOut() float64 {
	var s float64
	for i := range b.slots {
		sl := &b.slots[i]
		sl.mu.Lock()
		s += sl.be.slackOut()
		sl.mu.Unlock()
	}
	return s
}

func (b *shardedBackend[K]) absentExtra() float64 {
	// An absent item lives wholly in its owning shard, so the worst
	// single shard bounds it.
	var worst float64
	for i := range b.slots {
		sl := &b.slots[i]
		sl.mu.Lock()
		if e := sl.be.absentExtra(); e > worst {
			worst = e
		}
		sl.mu.Unlock()
	}
	return worst
}

// windowState aggregates the shards' ring states: granularity from the
// first shard (every shard is configured identically), covered mass
// summed across shards — the N windowed aggregate queries see.
func (b *shardedBackend[K]) windowState() (WindowState, bool) {
	var agg WindowState
	for i := range b.slots {
		sl := &b.slots[i]
		sl.mu.Lock()
		ws, ok := sl.be.windowState()
		sl.mu.Unlock()
		if !ok {
			return WindowState{}, false
		}
		if i == 0 {
			agg = ws
			agg.Covered = 0
		}
		agg.Covered += ws.Covered
		if ws.Live > agg.Live {
			agg.Live = ws.Live
		}
	}
	return agg, true
}

//hh:noalloc
func (b *shardedBackend[K]) reset() {
	for i := range b.slots {
		sl := &b.slots[i]
		sl.mu.Lock()
		sl.be.reset()
		sl.mu.Unlock()
	}
}

// --- sketch backend (Count-Min / Count-Sketch over hashed keys) ---

// sketchBackend pairs a randomized sketch with a top-m candidate tracker
// (the standard sketch + heap construction the paper contrasts against
// in Table 1): the sketch estimates any item, the tracker remembers the
// keys whose estimates have been largest so Top and HeavyHitters can
// enumerate candidates. Keys hash to uint64 before entering the sketch;
// for uint64 keys the mapping is a fixed-point mix, for strings FNV-1a.
type sketchBackend[K comparable] struct {
	cm    *sketch.CountMin
	cs    *sketch.CountSketch
	hash  func(K) uint64 //hh:noalloc
	width int
	track *tracker[K]
	// scratch is reused across each calls; see unitBackend.scratch.
	// Unsharded sketch summaries are single-threaded by contract, and
	// sharded ones serialize backend access per shard lock.
	scratch []WeightedEntry[K]
}

//hh:noalloc
func (b *sketchBackend[K]) add(h uint64, n uint64) {
	if b.cm != nil {
		b.cm.Add(h, n)
		return
	}
	b.cs.Add(h, int64(n))
}

//hh:noalloc
func (b *sketchBackend[K]) estimateHash(h uint64) float64 {
	if b.cm != nil {
		return float64(b.cm.Estimate(h))
	}
	return float64(b.cs.EstimateNonNegative(h))
}

//hh:noalloc
func (b *sketchBackend[K]) update(item K) { b.updateN(item, 1) }

//hh:noalloc
func (b *sketchBackend[K]) updateN(item K, n uint64) {
	if n == 0 {
		return
	}
	h := b.hash(item)
	b.add(h, n)
	b.track.offer(item, b.estimateHash(h))
}

//hh:noalloc
func (b *sketchBackend[K]) updateWeighted(item K, w float64) {
	if w != math.Trunc(w) {
		panic("heavyhitters: sketch backends accept integral weights only")
	}
	if w >= 1<<64 {
		panic("heavyhitters: integral weight overflows uint64")
	}
	b.updateN(item, uint64(w))
}

// updateBatch ingests a batch; when the sharded partitioner supplies the
// keys' hashes (the same keyHasher family this backend uses), each key's
// hash is reused instead of recomputed — one hash per key end to end.
//
//hh:noalloc
func (b *sketchBackend[K]) updateBatch(items []K, hashes []uint64) {
	if hashes == nil {
		for _, it := range items {
			b.updateN(it, 1)
		}
		return
	}
	for i, it := range items {
		h := hashes[i]
		b.add(h, 1)
		b.track.offer(it, b.estimateHash(h))
	}
}

// updateBatchN adds each coalesced group in one sketch update (Add is
// linear in the added mass) and offers the key to the candidate tracker
// once at its post-group estimate — the same estimate the last of n
// consecutive per-item offers would have seen, so the tracker reaches
// the same final decision for the group.
//
//hh:noalloc
func (b *sketchBackend[K]) updateBatchN(items []K, counts []uint32, hashes []uint64) {
	for i, it := range items {
		n := uint64(counts[i])
		if n == 0 {
			continue
		}
		h := b.hash(it)
		if hashes != nil {
			h = hashes[i]
		}
		b.add(h, n)
		b.track.offer(it, b.estimateHash(h))
	}
}

//hh:noalloc
func (b *sketchBackend[K]) estimate(item K) float64 { return b.estimateHash(b.hash(item)) }

//hh:noalloc
func (b *sketchBackend[K]) bounds(item K) (float64, float64) {
	if b.cm != nil {
		// Count-Min deterministically overestimates: f ≤ estimate.
		return 0, float64(b.cm.Estimate(b.hash(item)))
	}
	// Count-Sketch estimates carry no certain per-item bound.
	return 0, b.total()
}

//hh:noalloc
func (b *sketchBackend[K]) appendEntries(dst []WeightedEntry[K], max int) []WeightedEntry[K] {
	if max == 0 {
		return dst
	}
	start := len(dst)
	for _, te := range b.track.heap {
		dst = append(dst, WeightedEntry[K]{Item: te.item, Count: b.estimate(te.item)})
	}
	core.SortWeightedEntries(dst[start:])
	if max > 0 && len(dst)-start > max {
		dst = dst[:start+max]
	}
	return dst
}

//hh:noalloc
func (b *sketchBackend[K]) each(yield func(WeightedEntry[K]) bool) {
	// The candidate heap has no sorted live order: snapshot, then yield;
	// the buffer is detached while user code runs (see unitBackend.each).
	buf := b.appendEntries(b.scratch[:0], -1)
	b.scratch = nil
	for _, e := range buf {
		if !yield(e) {
			break
		}
	}
	b.scratch = buf
}

func (b *sketchBackend[K]) capacity() int { return b.width }
func (b *sketchBackend[K]) length() int   { return b.track.len() }

//hh:noalloc
func (b *sketchBackend[K]) total() float64 {
	if b.cm != nil {
		return float64(b.cm.N())
	}
	return float64(b.cs.N())
}

func (b *sketchBackend[K]) guarantee() (TailGuarantee, bool) { return TailGuarantee{}, false }
func (b *sketchBackend[K]) mergeable() bool                  { return false }
func (b *sketchBackend[K]) overEst() bool                    { return false }
func (b *sketchBackend[K]) slackOut() float64                { return 0 }
func (b *sketchBackend[K]) absentExtra() float64             { return 0 }
func (b *sketchBackend[K]) windowState() (WindowState, bool) { return WindowState{}, false }

//hh:noalloc
func (b *sketchBackend[K]) reset() {
	if b.cm != nil {
		b.cm.Reset()
	} else {
		b.cs.Reset()
	}
	b.track.reset()
}

// tracker is a capacity-bounded candidate set ordered by last observed
// estimate: a min-heap plus position index, so the smallest candidate is
// replaced in O(log k) when a larger newcomer appears.
type tracker[K comparable] struct {
	k    int
	pos  map[K]int
	heap []trackedEntry[K]
	// clone, when set, copies a key at the moment it enters the
	// candidate set, so offered keys may alias reused memory
	// (WithBorrowedKeys). Rejected and already-tracked candidates are
	// never cloned.
	clone func(K) K
}

type trackedEntry[K comparable] struct {
	item K
	est  float64
}

func newTracker[K comparable](k int) *tracker[K] {
	return &tracker[K]{k: k, pos: make(map[K]int, k)}
}

//hh:noalloc
func (t *tracker[K]) len() int { return len(t.heap) }

//hh:noalloc
func (t *tracker[K]) reset() {
	clear(t.pos)
	t.heap = t.heap[:0]
}

//hh:noalloc
func (t *tracker[K]) offer(item K, est float64) {
	if i, ok := t.pos[item]; ok {
		// Estimates can fall as well as rise (Count-Sketch medians), so
		// restore the heap invariant in whichever direction is needed.
		old := t.heap[i].est
		t.heap[i].est = est
		if est < old {
			t.siftUp(i)
		} else {
			t.siftDown(i)
		}
		return
	}
	if len(t.heap) < t.k {
		if t.clone != nil {
			item = t.clone(item) //hh:allocok borrowed-key inserts copy the key by contract
		}
		t.heap = append(t.heap, trackedEntry[K]{item, est})
		t.pos[item] = len(t.heap) - 1
		t.siftUp(len(t.heap) - 1)
		return
	}
	if est <= t.heap[0].est {
		return
	}
	if t.clone != nil {
		item = t.clone(item) //hh:allocok borrowed-key inserts copy the key by contract
	}
	delete(t.pos, t.heap[0].item)
	t.heap[0] = trackedEntry[K]{item, est}
	t.pos[item] = 0
	t.siftDown(0)
}

//hh:noalloc
func (t *tracker[K]) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.heap[p].est <= t.heap[i].est {
			break
		}
		t.swap(p, i)
		i = p
	}
}

//hh:noalloc
func (t *tracker[K]) siftDown(i int) {
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(t.heap) && t.heap[l].est < t.heap[min].est {
			min = l
		}
		if r < len(t.heap) && t.heap[r].est < t.heap[min].est {
			min = r
		}
		if min == i {
			return
		}
		t.swap(min, i)
		i = min
	}
}

//hh:noalloc
func (t *tracker[K]) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.pos[t.heap[i].item] = i
	t.pos[t.heap[j].item] = j
}

// --- key hashing ---

// keyHasher returns the stateless key hash used for shard placement and
// sketch key mapping: a seeded Fibonacci mix for uint64 keys, seeded
// FNV-1a for strings, and hash/maphash for every other comparable type
// (deterministic within a process, randomized across processes — shard
// placement never affects correctness, only which shard owns an item).
func keyHasher[K comparable](seed uint64) func(K) uint64 {
	var zero K
	switch any(zero).(type) {
	case uint64:
		return func(k K) uint64 { return mix64(any(k).(uint64) ^ seed) }
	case string:
		return func(k K) uint64 { return fnv1a(any(k).(string), seed) }
	default:
		mseed := maphash.MakeSeed()
		return func(k K) uint64 { return maphash.Comparable(mseed, k) }
	}
}

// lowBitsHash reports whether keyHasher[K] mixes every key byte into
// the low bits of its hash rather than the high ones: true for fnv1a
// (string keys), which ends each byte with a multiply — a multiply
// carries a byte's bits upward but never down, so the last bytes of a
// short key barely reach the high bits. mix64 and maphash mix into the
// high bits.
//
//hh:noalloc
func lowBitsHash[K comparable]() bool {
	var zero K
	_, isString := any(zero).(string)
	return isString
}

//hh:noalloc
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0x9e3779b97f4a7c15
	return x ^ x>>29
}

//hh:noalloc
func fnv1a(s string, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ mix64(seed)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
