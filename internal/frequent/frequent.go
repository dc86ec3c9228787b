// Package frequent implements the FREQUENT algorithm of Misra and Gries
// (Algorithm 1 in the paper): maintain at most m counters; an arrival of a
// stored item increments its counter, an arrival of a new item either
// claims a free counter or decrements every stored counter, discarding
// zeros.
//
// FREQUENT underestimates: c_i ≤ f_i, and Appendix B proves the k-tail
// guarantee with constants A = B = 1: f_i − c_i ≤ F1^res(k) / (m + 1 − k).
//
// Two implementations are provided. Frequent uses a value-grouped bucket
// list with a global decrement offset, making every update O(1) amortised
// (the decrement-all touches only the group that reaches zero). Naive is
// the literal O(m)-per-decrement transcription of the pseudocode, kept as
// a differential-testing oracle.
package frequent

import (
	"math"

	"repro/internal/arena"
	"repro/internal/core"
)

// nilIdx is the null link of the slab-allocated bucket lists.
const nilIdx = int32(-1)

// group collects all stored items sharing one stored value sv. True count
// of a member is sv − base. Groups form a doubly linked list in strictly
// increasing sv order, threaded through slab indices rather than
// pointers so the whole structure lives in two contiguous arrays.
type group struct {
	sv         uint64
	prev, next int32
	head, tail int32
	size       int32
}

type node[K comparable] struct {
	item       K
	grp        int32
	prev, next int32
	// hash is the low 32 bits of item's index hash on the arena path
	// (zero on the map path): dismantling a group deletes each member's
	// index entry by (hash, node index) without rehashing or re-reading
	// its cold key bytes. It fills padding the struct already had, so
	// node[string] stays 32 bytes and node[uint64] 24.
	hash uint32
}

// Frequent is the O(1)-amortised FREQUENT implementation, slab-allocated:
// nodes and groups are indices into two fixed arrays (int32 links,
// free-listed through the next field), so the update hot path touches
// contiguous memory and performs zero heap allocations once constructed.
// The zero value is not usable; construct with New.
type Frequent[K comparable] struct {
	m    int
	base uint64 // number of decrement-all operations so far
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
	nodes   []node[K]
	// Groups can momentarily number one more than the live nodes while a
	// node is detached during a move, hence the m+1 slab.
	groups    []group
	freeNode  int32
	freeGroup int32
	// head/tail of the group list, ascending by sv.
	head, tail int32
	n          uint64
	decrements uint64 // d in the Appendix B analysis
	// clone, when set, copies a key at the moment it is retained
	// (SetKeyClone) so callers may pass keys aliasing reused memory.
	clone func(K) K
	// probe is the hit-hint scratch of AddNBatch (one node index per
	// batch key), and hashes the index hash of each key when the caller
	// passes none; both are reused across batches so steady-state batch
	// ingest allocates nothing.
	probe  []int32
	hashes []uint64
}

// SetKeyClone installs fn as the borrowed-key clone hook: every key the
// structure decides to store is first passed through fn, so callers may
// hand Update/AddN keys whose backing memory is reused after the call.
// Keys that hit an existing counter — or bounce off a full table as a
// decrement — are never cloned. Must be called before the first update.
// On an arena-backed structure (EnableArena) the hook is ignored: the
// arena copies every retained key into its slabs already.
func (f *Frequent[K]) SetKeyClone(fn func(K) K) {
	if f.arenaOn {
		return
	}
	f.clone = fn
}

// EnableArena swaps the key index for the arena-backed open-addressing
// index of internal/arena: stored keys live in byte slabs as
// (offset, len) references, so the steady-state heap holds no per-key
// objects. Valid only for string-kind K (returns false otherwise — the
// map path stays) and only before the first update. seed salts the
// index hash (the keyHasher FNV-1a family). Borrowed keys need no
// separate clone hook afterwards: insertion interns the key bytes
// straight into the slabs, one copy, no intermediate string.
func (f *Frequent[K]) EnableArena(seed uint64) bool {
	if f.n != 0 || f.items.Len() != 0 {
		panic("frequent: EnableArena after updates")
	}
	ix, ok := arena.NewForString[K](f.m, seed)
	if !ok {
		return false
	}
	f.items = ix
	f.fast = nil
	f.arenaOn = true
	f.clone = nil
	return true
}

// lookup, store, unstore, and size are the hot-path face of the key
// index: direct map operations while fast is non-nil (the default),
// one interface call otherwise (arena). Decrement-heavy streams pay
// these per item, so the default path must not fund the arena's
// abstraction. Update and AddN spell the lookup branch out inline
// instead of calling lookup: the comma-ok map access plus the
// interface fallback push the shape instantiation of a lookup helper
// over the inline budget, which costs ~15% on uniform streams.
//
//hh:noalloc
func (f *Frequent[K]) lookup(item K) (int32, bool) {
	if f.fast != nil {
		nd, ok := f.fast[item]
		return nd, ok
	}
	nd, _, ok := f.items.Get(item)
	return nd, ok
}

// store retains item → nd and returns the retained key (a slab view on
// the arena path; item itself otherwise). h is item's index hash, from
// the lookup that missed (allocNode already kept its low 32 bits in
// the node for unstore).
//
//hh:noalloc
func (f *Frequent[K]) store(item K, h uint64, nd int32) K {
	if f.fast != nil {
		f.fast[item] = nd
		return item
	}
	return f.items.Put(item, h, nd)
}

// unstore drops node nd's key, whose hash fragment is h32, from the
// index.
//
//hh:noalloc
func (f *Frequent[K]) unstore(item K, h32 uint32, nd int32) {
	if f.fast != nil {
		delete(f.fast, item)
		return
	}
	f.items.Delete(item, h32, nd)
}

//hh:noalloc
func (f *Frequent[K]) size() int {
	if f.fast != nil {
		return len(f.fast)
	}
	return f.items.Len()
}

// MemoryFootprint reports the arena + index footprint; ok is false on
// the map path, whose footprint the runtime owns.
func (f *Frequent[K]) MemoryFootprint() (arena.MemStats, bool) { return f.items.Mem() }

// New returns a FREQUENT instance with m counters. It panics if m < 1.
func New[K comparable](m int) *Frequent[K] {
	if m < 1 {
		panic("frequent: m must be >= 1")
	}
	if m > math.MaxInt32-1 {
		// The slab links are int32 indices (m nodes, m+1 groups); a larger
		// m would wrap them. Fail loudly instead of corrupting.
		panic("frequent: m exceeds the int32 slab index range")
	}
	mp := arena.NewMap[K](m)
	f := &Frequent[K]{
		m:      m,
		items:  mp,
		fast:   mp,
		nodes:  make([]node[K], m),
		groups: make([]group, m+1),
	}
	f.initFreeLists()
	return f
}

//hh:noalloc
func (f *Frequent[K]) initFreeLists() {
	for i := range f.nodes {
		f.nodes[i].next = int32(i) + 1
	}
	f.nodes[len(f.nodes)-1].next = nilIdx
	for i := range f.groups {
		f.groups[i].next = int32(i) + 1
	}
	f.groups[len(f.groups)-1].next = nilIdx
	f.freeNode, f.freeGroup = 0, 0
	f.head, f.tail = nilIdx, nilIdx
}

//hh:noalloc
func (f *Frequent[K]) allocNode(item K, h uint64) int32 {
	i := f.freeNode
	f.freeNode = f.nodes[i].next
	f.nodes[i] = node[K]{item: item, grp: nilIdx, prev: nilIdx, next: nilIdx, hash: uint32(h)}
	return i
}

//hh:noalloc
func (f *Frequent[K]) freeNodeIdx(i int32) {
	var zero K
	f.nodes[i].item = zero // drop any reference held by the slab slot
	// grp = nilIdx marks the node dead: AddNBatch validates its probe
	// hints against it, so a hint to a freed-but-unreused node (whose
	// zeroed item could equal a legitimate zero-value key — dismantled
	// groups free many nodes without reusing them) is rejected.
	f.nodes[i].grp = nilIdx
	f.nodes[i].next = f.freeNode
	f.freeNode = i
}

//hh:noalloc
func (f *Frequent[K]) allocGroup(sv uint64) int32 {
	i := f.freeGroup
	f.freeGroup = f.groups[i].next
	f.groups[i] = group{sv: sv, prev: nilIdx, next: nilIdx, head: nilIdx, tail: nilIdx}
	return i
}

//hh:noalloc
func (f *Frequent[K]) freeGroupIdx(i int32) {
	f.groups[i].size = 0
	f.groups[i].next = f.freeGroup
	f.freeGroup = i
}

// Update processes one occurrence of item.
//
//hh:noalloc
func (f *Frequent[K]) Update(item K) {
	f.n++
	var nd int32
	var h uint64
	var ok bool
	if f.fast != nil {
		nd, ok = f.fast[item]
	} else {
		nd, h, ok = f.items.Get(item)
	}
	if ok {
		f.increment(nd)
		return
	}
	if f.size() < f.m {
		f.insert(item, h)
		return
	}
	f.decrementAll()
}

// AddN processes n occurrences of item at once, with the semantics of
// FREQUENTR restricted to integer weights (Section 6.1): a stored item
// gains n; a newcomer on a full table triggers one weighted decrement by
// δ = min(n, c_min) — all counters drop by δ, zeroed counters are
// evicted, and the newcomer enters with the remaining n − δ. Feeding n
// unit updates one at a time reaches the identical state; AddN reaches
// it in O(groups crossed) instead of O(n).
//
//hh:noalloc
func (f *Frequent[K]) AddN(item K, n uint64) {
	if n == 0 {
		return
	}
	f.n += n
	var nd int32
	var h uint64
	var ok bool
	if f.fast != nil {
		nd, ok = f.fast[item]
	} else {
		nd, h, ok = f.items.Get(item)
	}
	if ok {
		f.incrementN(nd, n)
		return
	}
	if f.size() < f.m {
		f.insertN(item, h, n)
		return
	}
	minCount := f.groups[f.head].sv - f.base
	if n < minCount {
		// The newcomer is the minimum: it zeroes out before any stored
		// counter does, so only the global decrement remains.
		f.base += n
		f.decrements += n
		return
	}
	// δ = c_min: the minimum group zeroes out and the newcomer keeps
	// the rest.
	f.base += minCount
	f.decrements += minCount
	f.dismantleGroup(f.head) // sv == f.base now
	if rem := n - minCount; rem > 0 {
		f.insertN(item, h, rem)
	}
}

// AddNBatch processes a coalesced batch: counts[i] occurrences of
// items[i], equivalent to calling AddN(items[i], counts[i]) in order.
// Batch keys must be pairwise distinct; a nil counts means every key
// occurs once. hashes, when non-nil on an arena-backed structure, must
// carry each key's keyHasher hash with the structure's seed (the
// partition hash); when nil, the probe pass hashes each key once. On
// the arena index the kernel is two-pass,
// mirroring spacesaving.AddNBatch: an index probe pass records hit
// hints, an apply pass validates each hint against the live node (a
// decrement in the same batch can dismantle the whole minimum group,
// freeing many nodes) and falls to the miss path on any staleness —
// sound because batch keys are distinct, so an evicted batch key stays
// absent. The map-backed fast path stays single-pass.
//
//hh:noalloc
func (f *Frequent[K]) AddNBatch(items []K, counts []uint32, hashes []uint64) {
	// Map-backed fast path: single-pass — a Go map probe gains nothing
	// from the hint scratch (see the spacesaving kernel's note).
	if f.fast != nil {
		for i, it := range items {
			n := uint64(1)
			if counts != nil {
				n = uint64(counts[i])
			}
			if n == 0 {
				continue
			}
			if nd, ok := f.fast[it]; ok {
				f.n += n
				f.incrementN(nd, n)
				continue
			}
			f.addNMiss(it, 0, n)
		}
		return
	}
	f.probe = f.probe[:0]
	if hashes != nil {
		for i, it := range items {
			nd, ok := f.items.GetHashed(it, hashes[i])
			if !ok {
				nd = nilIdx
			}
			f.probe = append(f.probe, nd)
		}
	} else {
		f.hashes = f.hashes[:0]
		for _, it := range items {
			nd, h, ok := f.items.Get(it)
			if !ok {
				nd = nilIdx
			}
			f.probe = append(f.probe, nd)
			f.hashes = append(f.hashes, h)
		}
		hashes = f.hashes
	}
	for i, it := range items {
		n := uint64(1)
		if counts != nil {
			n = uint64(counts[i])
		}
		if n == 0 {
			continue
		}
		if nd := f.probe[i]; nd != nilIdx && f.nodes[nd].grp != nilIdx && f.nodes[nd].item == it {
			f.n += n
			f.incrementN(nd, n)
			continue
		}
		f.addNMiss(it, hashes[i], n)
	}
}

// addNMiss is AddN's insert/decrement tail for a key known to be
// absent, with h its index hash (unused on the map path) — the batch
// kernel's miss path, which needs no index probe.
//
//hh:noalloc
func (f *Frequent[K]) addNMiss(item K, h uint64, n uint64) {
	f.n += n
	if f.size() < f.m {
		f.insertN(item, h, n)
		return
	}
	minCount := f.groups[f.head].sv - f.base
	if n < minCount {
		f.base += n
		f.decrements += n
		return
	}
	f.base += minCount
	f.decrements += minCount
	f.dismantleGroup(f.head) // sv == f.base now
	if rem := n - minCount; rem > 0 {
		f.insertN(item, h, rem)
	}
}

// incrementN moves nd from its group to the group with sv+n, scanning
// forward from its current position.
//
//hh:noalloc
func (f *Frequent[K]) incrementN(nd int32, n uint64) {
	newSv := f.groups[f.nodes[nd].grp].sv + n
	start := f.groups[f.nodes[nd].grp].next
	f.unlinkNode(nd) // may remove nd's old group; start stays valid
	t := start
	for t != nilIdx && f.groups[t].sv < newSv {
		t = f.groups[t].next
	}
	if t != nilIdx && f.groups[t].sv == newSv {
		f.appendNode(t, nd)
		return
	}
	f.appendNode(f.insertGroupBefore(t, newSv), nd)
}

// insertN stores a brand-new item with count n (stored value base+n),
// scanning from the head; h is its index hash.
//
//hh:noalloc
func (f *Frequent[K]) insertN(item K, h uint64, n uint64) {
	if f.clone != nil {
		item = f.clone(item) //hh:allocok borrowed-key inserts copy the key by contract
	}
	nd := f.allocNode(item, h)
	f.nodes[nd].item = f.store(item, h, nd)
	sv := f.base + n
	t := f.head
	for t != nilIdx && f.groups[t].sv < sv {
		t = f.groups[t].next
	}
	if t != nilIdx && f.groups[t].sv == sv {
		f.appendNode(t, nd)
		return
	}
	f.appendNode(f.insertGroupBefore(t, sv), nd)
}

// increment moves nd from its group to the group with sv+1.
//
//hh:noalloc
func (f *Frequent[K]) increment(nd int32) {
	g := f.nodes[nd].grp
	newSv := f.groups[g].sv + 1
	target := f.groups[g].next
	f.unlinkNode(nd) // may remove g
	if target != nilIdx && f.groups[target].sv == newSv {
		f.appendNode(target, nd)
		return
	}
	// Either g survived (insert right after it) or g was removed (insert
	// before target, i.e. at g's old position).
	if f.groups[g].size > 0 {
		f.appendNode(f.insertGroupAfter(g, newSv), nd)
	} else {
		f.appendNode(f.insertGroupBefore(target, newSv), nd)
	}
}

// insert stores a brand-new item with count 1 (stored value base+1);
// h is its index hash.
//
//hh:noalloc
func (f *Frequent[K]) insert(item K, h uint64) {
	if f.clone != nil {
		item = f.clone(item) //hh:allocok borrowed-key inserts copy the key by contract
	}
	nd := f.allocNode(item, h)
	f.nodes[nd].item = f.store(item, h, nd)
	target := f.head
	if target == nilIdx || f.groups[target].sv != f.base+1 {
		target = f.insertGroupBefore(f.head, f.base+1)
	}
	f.appendNode(target, nd)
}

// decrementAll implements "forall j ∈ T: c_j ← c_j − 1" in O(1) amortised
// time: the global base advances, and only the group whose count reaches
// zero is dismantled.
//
//hh:noalloc
func (f *Frequent[K]) decrementAll() {
	f.base++
	f.decrements++
	if f.head != nilIdx && f.groups[f.head].sv == f.base {
		f.dismantleGroup(f.head)
	}
}

// dismantleGroup evicts every member of group g and removes it.
//
//hh:noalloc
func (f *Frequent[K]) dismantleGroup(g int32) {
	for nd := f.groups[g].head; nd != nilIdx; {
		next := f.nodes[nd].next
		f.unstore(f.nodes[nd].item, f.nodes[nd].hash, nd)
		f.freeNodeIdx(nd)
		nd = next
	}
	f.removeGroup(g)
}

// Estimate returns the stored count of item, zero if absent. FREQUENT's
// estimates never exceed the true frequency.
//
//hh:noalloc
func (f *Frequent[K]) Estimate(item K) uint64 {
	nd, ok := f.lookup(item)
	if !ok {
		return 0
	}
	return f.groups[f.nodes[nd].grp].sv - f.base
}

// Each calls yield for every stored counter in decreasing count order
// (ties in FIFO bucket order), stopping early if yield returns false. It
// performs no allocations; the structure must not be mutated during the
// iteration.
//
//hh:noalloc
func (f *Frequent[K]) Each(yield func(core.Entry[K]) bool) {
	for g := f.tail; g != nilIdx; g = f.groups[g].prev {
		count := f.groups[g].sv - f.base
		for nd := f.groups[g].head; nd != nilIdx; nd = f.nodes[nd].next {
			if !yield(core.Entry[K]{Item: f.items.Materialize(f.nodes[nd].item), Count: count}) {
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
func (f *Frequent[K]) AppendEntries(dst []core.Entry[K], max int) []core.Entry[K] {
	if max == 0 {
		return dst
	}
	taken := 0
	for g := f.tail; g != nilIdx; g = f.groups[g].prev {
		count := f.groups[g].sv - f.base
		for nd := f.groups[g].head; nd != nilIdx; nd = f.nodes[nd].next {
			dst = append(dst, core.Entry[K]{Item: f.items.Materialize(f.nodes[nd].item), Count: count})
			taken++
			if max > 0 && taken >= max {
				return dst
			}
		}
	}
	return dst
}

// Entries returns the stored counters sorted by decreasing count.
func (f *Frequent[K]) Entries() []core.Entry[K] {
	return f.AppendEntries(make([]core.Entry[K], 0, f.items.Len()), -1)
}

// Capacity returns m.
func (f *Frequent[K]) Capacity() int { return f.m }

// Len returns the number of stored counters.
func (f *Frequent[K]) Len() int { return f.items.Len() }

// N returns the number of processed stream elements.
func (f *Frequent[K]) N() uint64 { return f.n }

// Decrements returns d, the number of decrement-all operations performed —
// the quantity bounded by F1^res(k)/(m+1−k) in Appendix B.
//
//hh:noalloc
func (f *Frequent[K]) Decrements() uint64 { return f.decrements }

// Reset restores the empty state, retaining the slabs and map storage so
// a reset structure keeps updating allocation-free.
//
//hh:noalloc
func (f *Frequent[K]) Reset() {
	f.base, f.n, f.decrements = 0, 0, 0
	f.items.Reset()
	var zero K
	for i := range f.nodes {
		f.nodes[i].item = zero
	}
	f.initFreeLists()
}

// Guarantee returns the Appendix B tail constants A = B = 1.
func (f *Frequent[K]) Guarantee() core.TailGuarantee { return core.TailGuarantee{A: 1, B: 1} }

// --- group-list plumbing ---

//hh:noalloc
func (f *Frequent[K]) insertGroupAfter(g int32, sv uint64) int32 {
	ng := f.allocGroup(sv)
	next := f.groups[g].next
	f.groups[ng].prev, f.groups[ng].next = g, next
	if next != nilIdx {
		f.groups[next].prev = ng
	} else {
		f.tail = ng
	}
	f.groups[g].next = ng
	return ng
}

// insertGroupBefore inserts a new group before g; a nil g appends at the
// tail (covers the empty-list case too).
//
//hh:noalloc
func (f *Frequent[K]) insertGroupBefore(g int32, sv uint64) int32 {
	ng := f.allocGroup(sv)
	if g == nilIdx {
		f.groups[ng].prev = f.tail
		if f.tail != nilIdx {
			f.groups[f.tail].next = ng
		} else {
			f.head = ng
		}
		f.tail = ng
		return ng
	}
	prev := f.groups[g].prev
	f.groups[ng].prev, f.groups[ng].next = prev, g
	if prev != nilIdx {
		f.groups[prev].next = ng
	} else {
		f.head = ng
	}
	f.groups[g].prev = ng
	return ng
}

//hh:noalloc
func (f *Frequent[K]) removeGroup(g int32) {
	prev, next := f.groups[g].prev, f.groups[g].next
	if prev != nilIdx {
		f.groups[prev].next = next
	} else {
		f.head = next
	}
	if next != nilIdx {
		f.groups[next].prev = prev
	} else {
		f.tail = prev
	}
	f.freeGroupIdx(g)
}

//hh:noalloc
func (f *Frequent[K]) appendNode(g int32, nd int32) {
	tail := f.groups[g].tail
	f.nodes[nd].grp = g
	f.nodes[nd].prev, f.nodes[nd].next = tail, nilIdx
	if tail != nilIdx {
		f.nodes[tail].next = nd
	} else {
		f.groups[g].head = nd
	}
	f.groups[g].tail = nd
	f.groups[g].size++
}

//hh:noalloc
func (f *Frequent[K]) unlinkNode(nd int32) {
	g := f.nodes[nd].grp
	prev, next := f.nodes[nd].prev, f.nodes[nd].next
	if prev != nilIdx {
		f.nodes[prev].next = next
	} else {
		f.groups[g].head = next
	}
	if next != nilIdx {
		f.nodes[next].prev = prev
	} else {
		f.groups[g].tail = prev
	}
	f.groups[g].size--
	if f.groups[g].size == 0 {
		f.removeGroup(g)
	}
	f.nodes[nd].prev, f.nodes[nd].next, f.nodes[nd].grp = nilIdx, nilIdx, nilIdx
}
