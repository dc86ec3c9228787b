// Package spacesaving implements the SPACESAVING algorithm of Metwally,
// Agrawal and El Abbadi (Algorithm 2 in the paper): maintain at most m
// counters; when a new item arrives with all counters taken, it replaces
// the item with the smallest counter c_min and starts at c_min + 1,
// recording ε_i = c_min as its possible overestimation.
//
// SPACESAVING overestimates: f_i ≤ c_i ≤ f_i + ε_i, the counters always
// sum to the stream length, and Appendix C proves the k-tail guarantee
// with constants A = B = 1: c_i − f_i ≤ F1^res(k) / (m − k).
//
// Two backing structures are provided:
//
//   - StreamSummary: the original bucket-list structure, O(1) per update;
//     among minimum-count items it evicts the least recently bucketed one
//     (deterministic FIFO).
//   - Heap (heap.go): a binary min-heap ordered by (count, identifier),
//     O(log m) per update; it evicts the smallest identifier among
//     minimum counts, the exact tie-break the Theorem 1 proof specifies.
//
// Both satisfy identical guarantees; E11 measures the constant-factor
// trade.
package spacesaving

import (
	"math"

	"repro/internal/arena"
	"repro/internal/core"
)

// nilIdx is the null link of the slab-allocated bucket lists.
const nilIdx = int32(-1)

// ssGroup is one count bucket. Groups form a doubly linked list in
// strictly ascending count order, threaded through slab indices rather
// than pointers so the whole structure lives in two contiguous arrays.
type ssGroup struct {
	count      uint64
	prev, next int32
	head, tail int32 // node list of this bucket
	size       int32
}

type ssNode[K comparable] struct {
	item       K
	err        uint64
	grp        int32
	prev, next int32
	// hash is the low 32 bits of item's index hash on the arena path
	// (zero on the map path): eviction deletes the victim's index entry
	// by (hash, node index) without rehashing or re-reading its cold key
	// bytes. It fills padding the struct already had, so ssNode[string]
	// stays 40 bytes and ssNode[uint64] 32.
	hash uint32
}

// StreamSummary is the O(1) bucket-list SPACESAVING implementation,
// slab-allocated: nodes and groups are indices into two fixed arrays
// (int32 links, free-listed through the next field), so the update hot
// path touches contiguous memory and performs zero heap allocations
// once constructed. The zero value is not usable; construct with New.
type StreamSummary[K comparable] struct {
	m int
	// items maps a stored key to its node index. The default is a map;
	// EnableArena swaps in the pointer-free open-addressing index for
	// string keys, after which every stored node.item aliases the
	// arena's slabs and exported entries pass through Materialize.
	items arena.Index[K]
	// fast aliases items as the concrete map while the default index is
	// in place, nil after EnableArena; the hot path branches on it so
	// map-backed ingest keeps direct (inlineable) map operations instead
	// of an interface call per Get/Put/Delete.
	fast arena.Map[K]
	// arenaOn records the swap so SetKeyClone stays a no-op (the arena
	// interns every retained key itself).
	arenaOn bool
	nodes   []ssNode[K]
	// Groups can momentarily number one more than the live nodes while a
	// node is detached during a move, hence the m+1 slab.
	groups    []ssGroup
	freeNode  int32
	freeGroup int32
	// head/tail of the group list, ascending by count.
	head, tail int32
	n          uint64
	// clone, when set, copies a key at the moment it is retained so
	// callers may pass keys aliasing reused memory (SetKeyClone).
	clone func(K) K
	// probe is the hit-hint scratch of AddNBatch (one node index per
	// batch key), and hashes the index hash of each key when the caller
	// passes none; both are reused across batches so steady-state batch
	// ingest allocates nothing.
	probe  []int32
	hashes []uint64
}

// SetKeyClone installs fn as the borrowed-key clone hook: every key the
// structure decides to retain (fresh insertion or eviction replacement)
// is first passed through fn, so callers may hand Update/AddN keys
// whose backing memory is reused after the call. Keys that only hit an
// existing counter are never cloned. A nil fn restores the default
// aliasing behavior. Must be called before the first update. On an
// arena-backed structure (EnableArena) the hook is ignored: the arena
// copies every retained key into its slabs already.
func (s *StreamSummary[K]) SetKeyClone(fn func(K) K) {
	if s.arenaOn {
		return
	}
	s.clone = fn
}

// EnableArena swaps the key index for the arena-backed open-addressing
// index of internal/arena: stored keys live in byte slabs as
// (offset, len) references, so the steady-state heap holds no per-key
// objects. Valid only for string-kind K (returns false otherwise — the
// map path stays) and only before the first update. seed salts the
// index hash (the keyHasher FNV-1a family). Borrowed keys need no
// separate clone hook afterwards: insertion interns the key bytes
// straight into the slabs, one copy, no intermediate string.
func (s *StreamSummary[K]) EnableArena(seed uint64) bool {
	if s.n != 0 || s.items.Len() != 0 {
		panic("spacesaving: EnableArena after updates")
	}
	ix, ok := arena.NewForString[K](s.m, seed)
	if !ok {
		return false
	}
	s.items = ix
	s.fast = nil
	s.arenaOn = true
	s.clone = nil
	return true
}

// lookup, store, unstore, and size are the hot-path face of the key
// index: direct map operations while fast is non-nil (the default),
// one interface call otherwise (arena). Eviction-heavy streams pay
// these per item, so the default path must not fund the arena's
// abstraction. Update and AddN spell the lookup branch out inline
// instead of calling lookup: the comma-ok map access plus the
// interface fallback push the shape instantiation of a lookup helper
// over the inline budget, which costs ~15% on uniform streams.
//
//hh:noalloc
func (s *StreamSummary[K]) lookup(item K) (int32, bool) {
	if s.fast != nil {
		nd, ok := s.fast[item]
		return nd, ok
	}
	nd, _, ok := s.items.Get(item)
	return nd, ok
}

// store retains item → nd and returns the retained key (a slab view on
// the arena path; item itself otherwise). h is item's index hash, from
// the lookup that missed (allocNode already kept its low 32 bits in
// the node for unstore).
//
//hh:noalloc
func (s *StreamSummary[K]) store(item K, h uint64, nd int32) K {
	if s.fast != nil {
		s.fast[item] = nd
		return item
	}
	return s.items.Put(item, h, nd)
}

// unstore drops node nd's key, whose hash fragment is h32, from the
// index.
//
//hh:noalloc
func (s *StreamSummary[K]) unstore(item K, h32 uint32, nd int32) {
	if s.fast != nil {
		delete(s.fast, item)
		return
	}
	s.items.Delete(item, h32, nd)
}

//hh:noalloc
func (s *StreamSummary[K]) size() int {
	if s.fast != nil {
		return len(s.fast)
	}
	return s.items.Len()
}

// MemoryFootprint reports the arena + index footprint; ok is false on
// the map path, whose footprint the runtime owns.
func (s *StreamSummary[K]) MemoryFootprint() (arena.MemStats, bool) { return s.items.Mem() }

// New returns a SPACESAVING instance with m counters backed by a
// Stream-Summary. It panics if m < 1.
func New[K comparable](m int) *StreamSummary[K] {
	if m < 1 {
		panic("spacesaving: m must be >= 1")
	}
	if m > math.MaxInt32-1 {
		// The slab links are int32 indices (m nodes, m+1 groups); a larger
		// m would wrap them. Fail loudly instead of corrupting.
		panic("spacesaving: m exceeds the int32 slab index range")
	}
	mp := arena.NewMap[K](m)
	s := &StreamSummary[K]{
		m:      m,
		items:  mp,
		fast:   mp,
		nodes:  make([]ssNode[K], m),
		groups: make([]ssGroup, m+1),
	}
	s.initFreeLists()
	return s
}

//hh:noalloc
func (s *StreamSummary[K]) initFreeLists() {
	for i := range s.nodes {
		s.nodes[i].next = int32(i) + 1
	}
	s.nodes[len(s.nodes)-1].next = nilIdx
	for i := range s.groups {
		s.groups[i].next = int32(i) + 1
	}
	s.groups[len(s.groups)-1].next = nilIdx
	s.freeNode, s.freeGroup = 0, 0
	s.head, s.tail = nilIdx, nilIdx
}

//hh:noalloc
func (s *StreamSummary[K]) allocNode(item K, err uint64, h uint64) int32 {
	i := s.freeNode
	s.freeNode = s.nodes[i].next
	s.nodes[i] = ssNode[K]{item: item, err: err, grp: nilIdx, prev: nilIdx, next: nilIdx, hash: uint32(h)}
	return i
}

//hh:noalloc
func (s *StreamSummary[K]) freeNodeIdx(i int32) {
	var zero K
	s.nodes[i].item = zero // drop any reference held by the slab slot
	// grp = nilIdx marks the node dead: AddNBatch validates its probe
	// hints against it, so a hint to a freed-but-unreused node (whose
	// zeroed item could equal a legitimate zero-value key) is rejected.
	s.nodes[i].grp = nilIdx
	s.nodes[i].next = s.freeNode
	s.freeNode = i
}

//hh:noalloc
func (s *StreamSummary[K]) allocGroup(count uint64) int32 {
	i := s.freeGroup
	s.freeGroup = s.groups[i].next
	s.groups[i] = ssGroup{count: count, prev: nilIdx, next: nilIdx, head: nilIdx, tail: nilIdx}
	return i
}

//hh:noalloc
func (s *StreamSummary[K]) freeGroupIdx(i int32) {
	s.groups[i].size = 0
	s.groups[i].next = s.freeGroup
	s.freeGroup = i
}

// Update processes one occurrence of item.
//
//hh:noalloc
func (s *StreamSummary[K]) Update(item K) {
	s.n++
	var nd int32
	var h uint64
	var ok bool
	if s.fast != nil {
		nd, ok = s.fast[item]
	} else {
		nd, h, ok = s.items.Get(item)
	}
	if ok {
		s.bump(nd, s.groups[s.nodes[nd].grp].count+1)
		return
	}
	if s.clone != nil {
		item = s.clone(item) //hh:allocok borrowed-key inserts copy the key by contract
	}
	if s.size() < s.m {
		fresh := s.allocNode(item, 0, h)
		s.nodes[fresh].item = s.store(item, h, fresh)
		target := s.head
		if target == nilIdx || s.groups[target].count != 1 {
			target = s.insertGroupBefore(s.head, 1)
		}
		s.appendNode(target, fresh)
		return
	}
	// Evict the oldest member of the minimum bucket; the newcomer
	// inherits its count plus one and records the eviction error.
	minG := s.head
	minCount := s.groups[minG].count
	victim := s.groups[minG].head
	s.unstore(s.nodes[victim].item, s.nodes[victim].hash, victim)
	s.unlinkNode(victim)
	s.freeNodeIdx(victim)
	nd = s.allocNode(item, minCount, h)
	s.nodes[nd].item = s.store(item, h, nd)
	// minG may have been removed if the victim was its only member; the
	// newcomer belongs to the bucket with count minCount+1 which, if it
	// must be created, sits exactly where minG was (or after it).
	s.placeWithCount(nd, minCount+1)
}

// AddN processes n occurrences of item at once, with the semantics of
// SPACESAVINGR restricted to integer weights (Section 6.1): a stored item
// gains n; a newcomer on a full structure replaces the minimum counter,
// starts at c_min + n, and records ε = c_min. AddN(item, 1) is exactly
// Update(item). Repositioning scans the group list forward, so a single
// call costs O(groups crossed) rather than O(1); amortized over a batch
// the cost matches feeding the occurrences one at a time.
//
//hh:noalloc
func (s *StreamSummary[K]) AddN(item K, n uint64) {
	if n == 0 {
		return
	}
	s.n += n
	var nd int32
	var h uint64
	var ok bool
	if s.fast != nil {
		nd, ok = s.fast[item]
	} else {
		nd, h, ok = s.items.Get(item)
	}
	if ok {
		s.bumpN(nd, s.groups[s.nodes[nd].grp].count+n)
		return
	}
	if s.clone != nil {
		item = s.clone(item) //hh:allocok borrowed-key inserts copy the key by contract
	}
	if s.size() < s.m {
		fresh := s.allocNode(item, 0, h)
		s.nodes[fresh].item = s.store(item, h, fresh)
		s.placeWithCount(fresh, n)
		return
	}
	minG := s.head
	minCount := s.groups[minG].count
	victim := s.groups[minG].head
	s.unstore(s.nodes[victim].item, s.nodes[victim].hash, victim)
	s.unlinkNode(victim)
	s.freeNodeIdx(victim)
	nd = s.allocNode(item, minCount, h)
	s.nodes[nd].item = s.store(item, h, nd)
	s.placeWithCount(nd, minCount+n)
}

// AddNBatch processes a coalesced batch: counts[i] occurrences of
// items[i], equivalent to calling AddN(items[i], counts[i]) in order.
// Batch keys must be pairwise distinct (the coalescing partitioner
// guarantees it); a nil counts means every key occurs once. hashes,
// when non-nil on an arena-backed structure, must carry each key's
// keyHasher hash with the structure's seed (the partition hash) and is
// used to probe and insert without rehashing; when nil, the probe pass
// hashes each key once.
//
// On the arena index the kernel is two-pass: the first pass only
// probes the key index, recording each key's node as a hit hint — a
// tight loop of independent lookups the CPU can overlap, instead of
// interleaving each dependent probe with the bucket-list mutation that
// follows it. The second pass applies the counts. A hint can go stale
// when an earlier miss in the same batch evicts its node, so every
// hint is validated against the live node (grp lifetime mark + key
// equality) before use; a stale hit is by construction a miss — batch
// keys are distinct, so nothing re-inserts an evicted batch key — and
// takes the miss path directly. The map-backed fast path stays
// single-pass: a Go map probe cannot be overlapped the same way, so
// the hint scratch would be pure overhead there.
//
//hh:noalloc
func (s *StreamSummary[K]) AddNBatch(items []K, counts []uint32, hashes []uint64) {
	if s.fast != nil {
		for i, it := range items {
			n := uint64(1)
			if counts != nil {
				n = uint64(counts[i])
			}
			if n == 0 {
				continue
			}
			if nd, ok := s.fast[it]; ok {
				s.n += n
				s.bumpN(nd, s.groups[s.nodes[nd].grp].count+n)
				continue
			}
			s.addNMiss(it, 0, n)
		}
		return
	}
	s.probe = s.probe[:0]
	if hashes != nil {
		for i, it := range items {
			nd, ok := s.items.GetHashed(it, hashes[i])
			if !ok {
				nd = nilIdx
			}
			s.probe = append(s.probe, nd)
		}
	} else {
		s.hashes = s.hashes[:0]
		for _, it := range items {
			nd, h, ok := s.items.Get(it)
			if !ok {
				nd = nilIdx
			}
			s.probe = append(s.probe, nd)
			s.hashes = append(s.hashes, h)
		}
		hashes = s.hashes
	}
	for i, it := range items {
		n := uint64(1)
		if counts != nil {
			n = uint64(counts[i])
		}
		if n == 0 {
			continue
		}
		if nd := s.probe[i]; nd != nilIdx && s.nodes[nd].grp != nilIdx && s.nodes[nd].item == it {
			s.n += n
			s.bumpN(nd, s.groups[s.nodes[nd].grp].count+n)
			continue
		}
		s.addNMiss(it, hashes[i], n)
	}
}

// addNMiss is AddN's insert/evict tail for a key known to be absent,
// with h its index hash (unused on the map path) — the batch kernel's
// miss path, which needs no index probe (a miss verdict cannot go
// stale inside a batch of distinct keys: no later group re-inserts the
// key).
//
//hh:noalloc
func (s *StreamSummary[K]) addNMiss(item K, h uint64, n uint64) {
	s.n += n
	if s.clone != nil {
		item = s.clone(item) //hh:allocok borrowed-key inserts copy the key by contract
	}
	if s.size() < s.m {
		fresh := s.allocNode(item, 0, h)
		s.nodes[fresh].item = s.store(item, h, fresh)
		s.placeWithCount(fresh, n)
		return
	}
	minG := s.head
	minCount := s.groups[minG].count
	victim := s.groups[minG].head
	s.unstore(s.nodes[victim].item, s.nodes[victim].hash, victim)
	s.unlinkNode(victim)
	s.freeNodeIdx(victim)
	nd := s.allocNode(item, minCount, h)
	s.nodes[nd].item = s.store(item, h, nd)
	s.placeWithCount(nd, minCount+n)
}

// bumpN moves nd to the bucket holding newCount (which must exceed its
// current count), scanning forward from its current position.
//
//hh:noalloc
func (s *StreamSummary[K]) bumpN(nd int32, newCount uint64) {
	start := s.groups[s.nodes[nd].grp].next
	s.unlinkNode(nd) // may remove nd's old group; start stays valid either way
	t := start
	for t != nilIdx && s.groups[t].count < newCount {
		t = s.groups[t].next
	}
	if t != nilIdx && s.groups[t].count == newCount {
		s.appendNode(t, nd)
		return
	}
	s.appendNode(s.insertGroupBefore(t, newCount), nd)
}

// bump moves nd to the bucket holding newCount, creating it if needed.
//
//hh:noalloc
func (s *StreamSummary[K]) bump(nd int32, newCount uint64) {
	g := s.nodes[nd].grp
	target := s.groups[g].next
	s.unlinkNode(nd) // may remove g
	if target != nilIdx && s.groups[target].count == newCount {
		s.appendNode(target, nd)
		return
	}
	// Either g survived (target group missing: insert right after g) or g
	// was removed (insert before target, i.e. at target's old position).
	if s.groups[g].size > 0 {
		s.appendNode(s.insertGroupAfter(g, newCount), nd)
	} else {
		s.appendNode(s.insertGroupBefore(target, newCount), nd)
	}
}

// placeWithCount inserts a fresh node into the bucket with the given
// count, scanning from the head (the count is within one of the minimum,
// so this is O(1)).
//
//hh:noalloc
func (s *StreamSummary[K]) placeWithCount(nd int32, count uint64) {
	g := s.head
	for g != nilIdx && s.groups[g].count < count {
		g = s.groups[g].next
	}
	if g != nilIdx && s.groups[g].count == count {
		s.appendNode(g, nd)
		return
	}
	s.appendNode(s.insertGroupBefore(g, count), nd)
}

// Estimate returns the stored count of item, zero if absent. Stored
// estimates never undercount: f_i ≤ c_i.
//
//hh:noalloc
func (s *StreamSummary[K]) Estimate(item K) uint64 {
	nd, ok := s.lookup(item)
	if !ok {
		return 0
	}
	return s.groups[s.nodes[nd].grp].count
}

// ErrorOf returns ε_item, the overestimation recorded when item last
// entered the frequent set (zero if item is absent or entered on a free
// counter). The guarantee c_i − ε_i ≤ f_i ≤ c_i holds per Lemma 3 of the
// SpaceSaving paper.
//
//hh:noalloc
func (s *StreamSummary[K]) ErrorOf(item K) uint64 {
	nd, ok := s.lookup(item)
	if !ok {
		return 0
	}
	return s.nodes[nd].err
}

// MinCount returns the smallest stored counter value Δ (zero when fewer
// than m counters are in use). Section 4.2 uses Δ for the global
// underestimate transform.
//
//hh:noalloc
func (s *StreamSummary[K]) MinCount() uint64 {
	if s.size() < s.m || s.head == nilIdx {
		return 0
	}
	return s.groups[s.head].count
}

// Each calls yield for every stored counter in decreasing count order
// (ties in FIFO bucket order), stopping early if yield returns false. It
// performs no allocations; the structure must not be mutated during the
// iteration.
//
//hh:noalloc
func (s *StreamSummary[K]) Each(yield func(core.Entry[K]) bool) {
	for g := s.tail; g != nilIdx; g = s.groups[g].prev {
		count := s.groups[g].count
		for nd := s.groups[g].head; nd != nilIdx; nd = s.nodes[nd].next {
			if !yield(core.Entry[K]{Item: s.items.Materialize(s.nodes[nd].item), Count: count, Err: s.nodes[nd].err}) {
				return
			}
		}
	}
}

// AppendEntries appends the stored counters in decreasing count order to
// dst, stopping after max entries when max >= 0, and returns the extended
// slice. With a reused buffer of sufficient capacity it allocates
// nothing.
//
//hh:noalloc
func (s *StreamSummary[K]) AppendEntries(dst []core.Entry[K], max int) []core.Entry[K] {
	if max == 0 {
		return dst
	}
	taken := 0
	for g := s.tail; g != nilIdx; g = s.groups[g].prev {
		count := s.groups[g].count
		for nd := s.groups[g].head; nd != nilIdx; nd = s.nodes[nd].next {
			dst = append(dst, core.Entry[K]{Item: s.items.Materialize(s.nodes[nd].item), Count: count, Err: s.nodes[nd].err})
			taken++
			if max > 0 && taken >= max {
				return dst
			}
		}
	}
	return dst
}

// Entries returns the stored counters sorted by decreasing count; each
// entry carries its ε_i in Err.
func (s *StreamSummary[K]) Entries() []core.Entry[K] {
	return s.AppendEntries(make([]core.Entry[K], 0, s.items.Len()), -1)
}

// Capacity returns m.
func (s *StreamSummary[K]) Capacity() int { return s.m }

// Len returns the number of stored counters.
func (s *StreamSummary[K]) Len() int { return s.items.Len() }

// N returns the number of processed stream elements. For SPACESAVING the
// stored counters always sum to exactly this value.
func (s *StreamSummary[K]) N() uint64 { return s.n }

// Reset restores the empty state, retaining the slabs and map storage so
// a reset structure keeps updating allocation-free.
//
//hh:noalloc
func (s *StreamSummary[K]) Reset() {
	s.items.Reset()
	var zero K
	for i := range s.nodes {
		s.nodes[i].item = zero
	}
	s.initFreeLists()
	s.n = 0
}

// Guarantee returns the Appendix C tail constants A = B = 1.
func (s *StreamSummary[K]) Guarantee() core.TailGuarantee { return core.TailGuarantee{A: 1, B: 1} }

// --- group-list plumbing (ascending by count) ---

//hh:noalloc
func (s *StreamSummary[K]) insertGroupAfter(g int32, count uint64) int32 {
	ng := s.allocGroup(count)
	next := s.groups[g].next
	s.groups[ng].prev, s.groups[ng].next = g, next
	if next != nilIdx {
		s.groups[next].prev = ng
	} else {
		s.tail = ng
	}
	s.groups[g].next = ng
	return ng
}

// insertGroupBefore inserts a new group before g; a nil g appends at the
// tail (covers the empty-list case too).
//
//hh:noalloc
func (s *StreamSummary[K]) insertGroupBefore(g int32, count uint64) int32 {
	ng := s.allocGroup(count)
	if g == nilIdx {
		s.groups[ng].prev = s.tail
		if s.tail != nilIdx {
			s.groups[s.tail].next = ng
		} else {
			s.head = ng
		}
		s.tail = ng
		return ng
	}
	prev := s.groups[g].prev
	s.groups[ng].prev, s.groups[ng].next = prev, g
	if prev != nilIdx {
		s.groups[prev].next = ng
	} else {
		s.head = ng
	}
	s.groups[g].prev = ng
	return ng
}

//hh:noalloc
func (s *StreamSummary[K]) removeGroup(g int32) {
	prev, next := s.groups[g].prev, s.groups[g].next
	if prev != nilIdx {
		s.groups[prev].next = next
	} else {
		s.head = next
	}
	if next != nilIdx {
		s.groups[next].prev = prev
	} else {
		s.tail = prev
	}
	s.freeGroupIdx(g)
}

//hh:noalloc
func (s *StreamSummary[K]) appendNode(g int32, nd int32) {
	tail := s.groups[g].tail
	s.nodes[nd].grp = g
	s.nodes[nd].prev, s.nodes[nd].next = tail, nilIdx
	if tail != nilIdx {
		s.nodes[tail].next = nd
	} else {
		s.groups[g].head = nd
	}
	s.groups[g].tail = nd
	s.groups[g].size++
}

//hh:noalloc
func (s *StreamSummary[K]) unlinkNode(nd int32) {
	g := s.nodes[nd].grp
	prev, next := s.nodes[nd].prev, s.nodes[nd].next
	if prev != nilIdx {
		s.nodes[prev].next = next
	} else {
		s.groups[g].head = next
	}
	if next != nilIdx {
		s.nodes[next].prev = prev
	} else {
		s.groups[g].tail = prev
	}
	s.groups[g].size--
	if s.groups[g].size == 0 {
		s.removeGroup(g)
	}
	s.nodes[nd].prev, s.nodes[nd].next, s.nodes[nd].grp = nilIdx, nilIdx, nilIdx
}
