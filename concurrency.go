package heavyhitters

// The concurrency tier: thread safety as a composable backend layer
// (WithConcurrent), sitting above every other tier — core →
// window/decay → sharded → concurrent — instead of living in a
// parallel code path.
//
// Writers go through striped locks: on a sharded composition the
// shard mutexes stripe the ingest path exactly as WithShards alone
// does (the batch path keeps the one-hash-per-key contract), and an
// unsharded composition serializes through one write mutex. Every
// completed write bumps an atomic generation counter.
//
// Readers never take the write locks. Every query is served from an
// RCU-style snapshot behind an atomic pointer: an immutable view of
// the counter state, labeled with the generation it reflects. A read
// that finds the label equal to the current generation serves the
// snapshot as-is — the common case for read-mostly and quiescent
// summaries, with zero locking. When the generation moved, one reader
// rebuilds the snapshot (single-flight behind rebuildMu) by walking
// the live structure through the same per-shard locking the write
// path uses; concurrent readers that lose the rebuild race serve the
// previous snapshot rather than wait, so a query's staleness is
// bounded by the duration of the one in-flight rebuild. N(), Encode
// and merges opt out of that fallback: they wait for the in-flight
// rebuild (currentFresh), so the reported mass is exact the moment
// writers quiesce and an encoded or merged state covers every write
// completed before the call. A Reset draws
// a hard line through that allowance: snapshots are also labeled with
// a reset era, and a reader never serves a snapshot from an earlier
// era — post-Reset queries wait for a post-Reset rebuild instead of
// reporting pre-Reset counters.
//
// Bounds served from a snapshot are certain. For an unsharded
// composition the snapshot is collected under the write mutex, so it
// is a point-in-time view and reproduces the live bounds exactly. For
// a sharded composition the collection locks shards one at a time
// (consistent per-shard states, the same semantics sharded queries
// have always had), and the snapshot carries the aggregated upper
// slack Σ_shards slackOut — at least the owning shard's slack for
// every item — so [count − err, count + slack] still brackets the
// truth; the price is bounds up to the other shards' slack wider than
// a live per-shard query (zero for SPACESAVING, whose slack is 0).
//
// Tick windows add a second staleness trigger: with an idle stream
// the generation never moves, but epochs still age out. Snapshots of
// tick-windowed compositions record their capture time and expire
// after one epoch granularity, so a read on an idle stream rebuilds —
// the rebuild walks the ring under the write locks, rotating expired
// epochs exactly as a PR 3 query would, which is what makes
// query-driven rotation safe against concurrent writers.

import (
	"sync"
	"sync/atomic"
	"time"
)

// concurrentTier implements backend[K] as the thread-safety layer over
// any inner composition. Built by New when WithConcurrent is given.
type concurrentTier[K comparable] struct {
	inner backend[K]
	// selfLocked: the inner backend serializes its own mutations (the
	// sharded tier's per-shard mutexes stripe the write path). Otherwise
	// wmu guards every write and every snapshot collection.
	selfLocked bool
	wmu        sync.Mutex

	// gen counts completed writes; a snapshot labeled with the current
	// generation is exact. resetGen counts Resets: snapshots from an
	// earlier era are never served, even as bounded-stale fallbacks.
	gen      atomic.Uint64
	resetGen atomic.Uint64
	snap     atomic.Pointer[concurrentSnapshot[K]]
	// rebuildMu single-flights snapshot rebuilds. Writers never touch
	// it; readers TryLock and fall back to the previous snapshot when a
	// rebuild is already in flight.
	rebuildMu sync.Mutex
	// lastLen sizes the next snapshot's buffers.
	lastLen int //hh:guardedby rebuildMu

	// Tick-window staleness: snapshots expire after one epoch
	// granularity even without writes, so idle epochs age out of reads.
	tick  time.Duration
	clock func() time.Time
}

// newConcurrentTier wraps inner in the concurrency tier.
func newConcurrentTier[K comparable](cfg config, inner backend[K]) *concurrentTier[K] {
	t := &concurrentTier[K]{inner: inner}
	_, t.selfLocked = inner.(*shardedBackend[K])
	if cfg.tickSet {
		t.tick = cfg.tick / time.Duration(cfg.epochs)
		if t.tick <= 0 {
			t.tick = 1
		}
		t.clock = cfg.clock
		if t.clock == nil {
			t.clock = time.Now
		}
	}
	return t
}

// concurrentSnapshot is one immutable view of the wrapped composition:
// everything a read needs, so serving it touches no locks. It
// implements backend[K] so pinned compound queries (HeavyHitters,
// Merge, Encode) run against one consistent view.
//
//hh:immutable
type concurrentSnapshot[K comparable] struct {
	gen      uint64
	resetGen uint64
	takenAt  time.Time // tick windows only

	entries []WeightedEntry[K] // decreasing count order
	index   map[K]int32
	mass    float64
	upSlack float64 // inner slackOut at capture
	absFlr  float64 // inner absentExtra at capture
	win     WindowState
	hasWin  bool

	// Static configuration mirrored so the snapshot alone answers
	// every backend method.
	cap      int
	tailG    TailGuarantee
	hasTailG bool
	canMerge bool
	over     bool
}

// --- write path (striped locks + generation bump) ---

//hh:noalloc
func (t *concurrentTier[K]) update(item K) {
	if t.selfLocked {
		t.inner.update(item)
	} else {
		t.wmu.Lock()
		t.inner.update(item)
		t.wmu.Unlock()
	}
	t.gen.Add(1)
}

//hh:noalloc
func (t *concurrentTier[K]) updateN(item K, n uint64) {
	if t.selfLocked {
		t.inner.updateN(item, n)
	} else {
		t.wmu.Lock()
		t.inner.updateN(item, n)
		t.wmu.Unlock()
	}
	t.gen.Add(1)
}

//hh:noalloc
func (t *concurrentTier[K]) updateWeighted(item K, w float64) {
	if t.selfLocked {
		t.inner.updateWeighted(item, w)
	} else {
		t.wmu.Lock()
		t.inner.updateWeighted(item, w)
		t.wmu.Unlock()
	}
	t.gen.Add(1)
}

//hh:noalloc
func (t *concurrentTier[K]) updateBatch(items []K, hashes []uint64) {
	if t.selfLocked {
		t.inner.updateBatch(items, hashes)
	} else {
		t.wmu.Lock()
		t.inner.updateBatch(items, hashes)
		t.wmu.Unlock()
	}
	t.gen.Add(1)
}

//hh:noalloc
func (t *concurrentTier[K]) updateBatchN(items []K, counts []uint32, hashes []uint64) {
	if t.selfLocked {
		t.inner.updateBatchN(items, counts, hashes)
	} else {
		t.wmu.Lock()
		t.inner.updateBatchN(items, counts, hashes)
		t.wmu.Unlock()
	}
	t.gen.Add(1)
}

//hh:noalloc
func (t *concurrentTier[K]) reset() {
	if t.selfLocked {
		// Per-shard locking: not atomic against concurrent writers (the
		// documented sharded semantics), but every pre-Reset entry lives
		// in some shard and is cleared when that shard resets.
		t.inner.reset()
	} else {
		t.wmu.Lock()
		t.inner.reset()
		t.wmu.Unlock()
	}
	// Era bump after the state is cleared: a snapshot collected from any
	// pre-Reset (or mid-Reset) state carries the old era label and is
	// rejected, so a post-Reset reader never serves pre-Reset entries.
	t.gen.Add(1)
	t.resetGen.Add(1)
}

// --- read path (lock-free serve, single-flight rebuild) ---

// fresh reports whether s can be served as the exact current state.
//
//hh:noalloc
func (t *concurrentTier[K]) fresh(s *concurrentSnapshot[K]) bool {
	if s == nil || s.gen != t.gen.Load() || s.resetGen != t.resetGen.Load() {
		return false
	}
	if t.tick > 0 && t.clock().Sub(s.takenAt) >= t.tick {
		// An idle tick window still ages: force a rebuild (which rotates
		// expired epochs) once per epoch granularity.
		return false
	}
	return true
}

// current returns the snapshot to serve this read from: the stored one
// when fresh, a rebuilt one when the generation moved, or — when
// another reader's rebuild is already in flight — the previous
// snapshot of the same reset era (bounded-stale by one rebuild).
func (t *concurrentTier[K]) current() *concurrentSnapshot[K] {
	s := t.snap.Load()
	if t.fresh(s) {
		return s
	}
	if t.rebuildMu.TryLock() {
		defer t.rebuildMu.Unlock()
		if s = t.snap.Load(); t.fresh(s) {
			return s // raced with a rebuild that just finished
		}
		s = t.capture()
		t.snap.Store(s)
		return s
	}
	// A rebuild is in flight. Serving its predecessor keeps readers from
	// ever waiting on each other — unless a Reset intervened, which must
	// not leak pre-Reset state.
	if s != nil && s.resetGen == t.resetGen.Load() {
		return s
	}
	t.rebuildMu.Lock()
	defer t.rebuildMu.Unlock()
	if s = t.snap.Load(); t.fresh(s) || (s != nil && s.resetGen == t.resetGen.Load()) {
		return s
	}
	s = t.capture()
	t.snap.Store(s)
	return s
}

// currentFresh returns a snapshot reflecting every write completed
// before the call: when the stored snapshot is stale it waits for (or
// performs) the single-flight rebuild instead of taking the
// bounded-stale fallback. total() uses it so N() is exact the moment
// writers quiesce, even if a reader's rebuild from mid-ingest is still
// in flight — the wait is on other readers' rebuilds only; writers are
// never blocked.
func (t *concurrentTier[K]) currentFresh() *concurrentSnapshot[K] {
	s := t.snap.Load()
	if t.fresh(s) {
		return s
	}
	t.rebuildMu.Lock()
	defer t.rebuildMu.Unlock()
	if s = t.snap.Load(); t.fresh(s) {
		return s
	}
	s = t.capture()
	t.snap.Store(s)
	return s
}

// capture collects one snapshot, locking the structure the same way
// the write path does (the whole composition for unsharded, one shard
// at a time for sharded). The generation and era labels are read
// before collection, so they can only understate the snapshot's
// freshness — a write racing with the collection is either included
// and re-collected on the next read, or not included and invisible;
// never reported as covered when it is not.
//
//hh:locked rebuildMu
func (t *concurrentTier[K]) capture() *concurrentSnapshot[K] {
	s := &concurrentSnapshot[K]{
		gen:      t.gen.Load(),
		resetGen: t.resetGen.Load(),
		cap:      t.inner.capacity(),
		canMerge: t.inner.mergeable(),
		over:     t.inner.overEst(),
	}
	s.tailG, s.hasTailG = t.inner.guarantee()
	if t.tick > 0 {
		s.takenAt = t.clock()
	}
	if !t.selfLocked {
		t.wmu.Lock()
	}
	s.entries = t.inner.appendEntries(make([]WeightedEntry[K], 0, t.lastLen), -1)
	s.mass = t.inner.total()
	s.upSlack = t.inner.slackOut()
	s.absFlr = t.inner.absentExtra()
	s.win, s.hasWin = t.inner.windowState()
	if !t.selfLocked {
		t.wmu.Unlock()
	}
	t.lastLen = len(s.entries)
	s.index = make(map[K]int32, len(s.entries))
	for i, e := range s.entries {
		s.index[e.Item] = int32(i)
	}
	return s
}

func (t *concurrentTier[K]) estimate(item K) float64          { return t.current().estimate(item) }
func (t *concurrentTier[K]) bounds(item K) (float64, float64) { return t.current().bounds(item) }

func (t *concurrentTier[K]) appendEntries(dst []WeightedEntry[K], max int) []WeightedEntry[K] {
	return t.current().appendEntries(dst, max)
}

func (t *concurrentTier[K]) each(yield func(WeightedEntry[K]) bool) {
	// The snapshot is immutable and privately pinned by this iteration:
	// nested queries and concurrent writers cannot clobber it, and no
	// scratch detaching is needed.
	t.current().each(yield)
}

func (t *concurrentTier[K]) length() int          { return len(t.current().entries) }
func (t *concurrentTier[K]) total() float64       { return t.currentFresh().mass }
func (t *concurrentTier[K]) slackOut() float64    { return t.current().upSlack }
func (t *concurrentTier[K]) absentExtra() float64 { return t.current().absFlr }
func (t *concurrentTier[K]) windowState() (WindowState, bool) {
	s := t.current()
	return s.win, s.hasWin
}

// Static configuration: safe to read off the inner composition without
// locks (none of these touch counter state).
func (t *concurrentTier[K]) capacity() int                    { return t.inner.capacity() }
func (t *concurrentTier[K]) guarantee() (TailGuarantee, bool) { return t.inner.guarantee() }
func (t *concurrentTier[K]) mergeable() bool                  { return t.inner.mergeable() }
func (t *concurrentTier[K]) overEst() bool                    { return t.inner.overEst() }

// --- the snapshot as a backend (pinned compound queries) ---

//hh:noalloc
func (s *concurrentSnapshot[K]) estimate(item K) float64 {
	if i, ok := s.index[item]; ok {
		return s.entries[i].Count
	}
	return 0
}

// bounds reproduces the live backends' certain intervals from the
// snapshot's aggregate metadata: overestimating state (the SPACESAVING
// convention) keeps lo = count − err; undercounting state
// (FREQUENT/LOSSYCOUNTING, whose deficit travels in the slack) keeps
// lo = count; every upper bound owes the captured global slack, and an
// absent item owes the absent floor on top.
//
//hh:noalloc
func (s *concurrentSnapshot[K]) bounds(item K) (lo, hi float64) {
	if i, ok := s.index[item]; ok {
		e := s.entries[i]
		lo = e.Count
		if s.over {
			lo = e.Count - e.Err
			if lo < 0 {
				lo = 0
			}
		}
		return lo, e.Count + s.upSlack
	}
	return 0, s.upSlack + s.absFlr
}

//hh:noalloc
func (s *concurrentSnapshot[K]) appendEntries(dst []WeightedEntry[K], max int) []WeightedEntry[K] {
	take := len(s.entries)
	if max >= 0 && take > max {
		take = max
	}
	return append(dst, s.entries[:take]...)
}

//hh:noalloc
func (s *concurrentSnapshot[K]) each(yield func(WeightedEntry[K]) bool) {
	for _, e := range s.entries {
		if !yield(e) {
			return
		}
	}
}

func (s *concurrentSnapshot[K]) length() int                      { return len(s.entries) }
func (s *concurrentSnapshot[K]) total() float64                   { return s.mass }
func (s *concurrentSnapshot[K]) slackOut() float64                { return s.upSlack }
func (s *concurrentSnapshot[K]) absentExtra() float64             { return s.absFlr }
func (s *concurrentSnapshot[K]) windowState() (WindowState, bool) { return s.win, s.hasWin }
func (s *concurrentSnapshot[K]) capacity() int                    { return s.cap }
func (s *concurrentSnapshot[K]) guarantee() (TailGuarantee, bool) { return s.tailG, s.hasTailG }
func (s *concurrentSnapshot[K]) mergeable() bool                  { return s.canMerge }
func (s *concurrentSnapshot[K]) overEst() bool                    { return s.over }

// Snapshots are read-only views; the summary wrapper never routes
// writes to one.
//
//hh:noalloc
func (s *concurrentSnapshot[K]) update(K) { panic("heavyhitters: write through snapshot") }

//hh:noalloc
func (s *concurrentSnapshot[K]) updateN(K, uint64) { panic("heavyhitters: write through snapshot") }

//hh:noalloc
func (s *concurrentSnapshot[K]) updateWeighted(K, float64) {
	panic("heavyhitters: write through snapshot")
}

//hh:noalloc
func (s *concurrentSnapshot[K]) updateBatch([]K, []uint64) {
	panic("heavyhitters: write through snapshot")
}

//hh:noalloc
func (s *concurrentSnapshot[K]) updateBatchN([]K, []uint32, []uint64) {
	panic("heavyhitters: write through snapshot")
}

//hh:noalloc
func (s *concurrentSnapshot[K]) reset() { panic("heavyhitters: write through snapshot") }

// pinned returns the consistent read view a compound query should run
// against: the concurrency tier pins one snapshot for the whole query,
// every other backend is its own consistent view already.
func pinned[K comparable](be backend[K]) backend[K] {
	if t, ok := be.(*concurrentTier[K]); ok {
		return t.current()
	}
	return be
}

// pinnedFresh is pinned for reads whose result must cover every write
// completed before the call — merges and encodes, which feed durable
// snapshots and cached union views: the concurrency tier waits for an
// in-flight rebuild (currentFresh) instead of serving its predecessor.
func pinnedFresh[K comparable](be backend[K]) backend[K] {
	if t, ok := be.(*concurrentTier[K]); ok {
		return t.currentFresh()
	}
	return be
}
