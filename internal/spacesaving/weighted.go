package spacesaving

import (
	"maps"
	"math"

	"repro/internal/core"
)

// R is SPACESAVINGR, the real-valued update extension of Section 6.1: an
// arrival (a_i, b_i) increments a_i's counter by b_i; when a_i is not
// stored and all m counters are taken, a_i replaces the item with the
// minimum counter c_min and starts at c_min + b_i, recording ε = c_min.
// When every b_i is 1 it behaves identically to SPACESAVING, and
// Theorem 10 gives it the k-tail guarantee with A = B = 1.
//
// Counters live in fixed slots: a key keeps its slot until it is
// evicted, and the evicting key takes the victim's slot over. A binary
// min-heap on counts orders the slot indices, with at[slot] pointing
// back into the heap, so a sift swaps two int32s instead of rewriting
// the key map. Ties are broken by heap position (deterministic for a
// fixed update sequence). The zero value is not usable; construct with
// NewR.
type R[K comparable] struct {
	m     int
	pos   map[K]int32 // key -> slot
	slots []rElem[K]
	heap  []int32 // slot indices, min-heap on slots[·].count
	at    []int32 // slot -> index in heap
	total float64
	// clone, when set, copies a key at the moment it is retained
	// (SetKeyClone) so callers may pass keys aliasing reused memory.
	clone func(K) K
}

// SetKeyClone installs fn as the borrowed-key clone hook: every key the
// structure decides to retain is first passed through fn, so callers
// may hand updates keys whose backing memory is reused after the call.
// Keys that only hit an existing counter are never cloned. Must be
// called before the first update.
func (r *R[K]) SetKeyClone(fn func(K) K) { r.clone = fn }

type rElem[K comparable] struct {
	item  K
	count float64
	err   float64
}

// NewR returns a SPACESAVINGR instance with m counters. It panics if
// m < 1 or m does not fit the int32 slot indices.
func NewR[K comparable](m int) *R[K] {
	return NewRSized[K](m, m)
}

// NewRSized returns an R with capacity m whose initial storage is sized
// for hint counters and grown on demand. Decoders use it so an
// untrusted capacity field cannot force a large up-front allocation.
func NewRSized[K comparable](m, hint int) *R[K] {
	if m < 1 {
		panic("spacesaving: m must be >= 1")
	}
	if m > math.MaxInt32 {
		// Slots and heap positions are int32; a larger m would wrap them.
		panic("spacesaving: m exceeds the int32 slot index range")
	}
	hint = min(max(hint, 0), m)
	return &R[K]{
		m:     m,
		pos:   make(map[K]int32, hint),
		slots: make([]rElem[K], 0, hint),
		heap:  make([]int32, 0, hint),
		at:    make([]int32, 0, hint),
	}
}

// Clone returns an independent deep copy: the same counters in the
// same slots and heap order, so the copy evolves bit-identically to the
// original under the same updates. Storage keeps the original's
// capacity, so a clone of a partly filled structure grows no more than
// the original would. The key-clone hook is shared.
func (r *R[K]) Clone() *R[K] {
	return &R[K]{
		m:     r.m,
		pos:   maps.Clone(r.pos),
		slots: append(make([]rElem[K], 0, cap(r.slots)), r.slots...),
		heap:  append(make([]int32, 0, cap(r.heap)), r.heap...),
		at:    append(make([]int32, 0, cap(r.at)), r.at...),
		total: r.total,
		clone: r.clone,
	}
}

// UpdateWeighted processes b occurrences' worth of item. It panics on
// non-positive or non-finite b.
//
//hh:noalloc
func (r *R[K]) UpdateWeighted(item K, b float64) {
	if math.IsNaN(b) || math.IsInf(b, 0) {
		// A non-finite weight would silently poison the running total
		// and every bound derived from it.
		panic("spacesaving: non-finite weight")
	}
	if b <= 0 {
		panic("spacesaving: non-positive weight")
	}
	r.total += b
	if s, ok := r.pos[item]; ok {
		// err is left as is, not += 0: that would turn a −0 error a
		// decoded blob carried into +0 and change the encoded bytes.
		r.slots[s].count += b
		r.siftDown(int(r.at[s]))
		return
	}
	r.insert(item, b, 0)
}

// Update processes a unit-weight occurrence.
//
//hh:noalloc
func (r *R[K]) Update(item K) { r.UpdateWeighted(item, 1) }

// Absorb ingests one counter from another summary: count arrives as
// weighted occurrences and err widens the per-item error interval (the
// producing summary's own overestimation bound for the item). It is the
// merge primitive of Section 6.2 with error metadata carried through, so
// that a merged summary's [c − ε, c] intervals remain certain bounds when
// every input is an overestimating (SPACESAVING-family) summary. A
// non-positive count is ignored.
//
//hh:noalloc
func (r *R[K]) Absorb(item K, count, err float64) {
	if count <= 0 {
		return
	}
	r.total += count
	if s, ok := r.pos[item]; ok {
		r.slots[s].count += count
		r.slots[s].err += err
		r.siftDown(int(r.at[s]))
		return
	}
	r.insert(item, count, err)
}

// insert stores an item that holds no counter: in a free slot while
// fewer than m are taken, otherwise in the minimum counter's slot,
// starting from c_min with ε = c_min + err.
//
//hh:noalloc
func (r *R[K]) insert(item K, count, err float64) {
	if r.clone != nil {
		item = r.clone(item) //hh:allocok borrowed-key inserts copy the key by contract
	}
	if len(r.slots) < r.m {
		s := int32(len(r.slots))
		r.slots = append(r.slots, rElem[K]{item: item, count: count, err: err})
		r.pos[item] = s
		r.heap = append(r.heap, s)
		r.at = append(r.at, s)
		r.siftUp(int(s))
		return
	}
	s := r.heap[0]
	cmin := r.slots[s].count
	delete(r.pos, r.slots[s].item)
	r.slots[s] = rElem[K]{item: item, count: cmin + count, err: cmin + err}
	r.pos[item] = s
	r.siftDown(0)
}

// EstimateWeighted returns the stored counter for item, zero if absent.
// Stored estimates never undercount.
//
//hh:noalloc
func (r *R[K]) EstimateWeighted(item K) float64 {
	s, ok := r.pos[item]
	if !ok {
		return 0
	}
	return r.slots[s].count
}

// ErrorOf returns the recorded ε for item (zero if absent).
//
//hh:noalloc
func (r *R[K]) ErrorOf(item K) float64 {
	s, ok := r.pos[item]
	if !ok {
		return 0
	}
	return r.slots[s].err
}

// MinCount returns the smallest stored counter Δ (zero when not full).
//
//hh:noalloc
func (r *R[K]) MinCount() float64 {
	if len(r.slots) < r.m || len(r.slots) == 0 {
		return 0
	}
	return r.slots[r.heap[0]].count
}

// AppendWeightedEntries appends the stored counters in decreasing count
// order to dst, keeping at most max entries when max >= 0, and returns
// the extended slice. The counters live in a heap, so all of them are
// materialized and sorted before truncation; with a reused buffer of
// sufficient capacity the call still allocates nothing.
//
//hh:noalloc
func (r *R[K]) AppendWeightedEntries(dst []core.WeightedEntry[K], max int) []core.WeightedEntry[K] {
	if max == 0 {
		return dst
	}
	start := len(dst)
	// Heap order, so equal counts keep the tie order the stable sort
	// has always seen.
	for _, s := range r.heap {
		e := &r.slots[s]
		dst = append(dst, core.WeightedEntry[K]{Item: e.item, Count: e.count, Err: e.err})
	}
	core.SortWeightedEntries(dst[start:])
	if max > 0 && len(dst)-start > max {
		dst = dst[:start+max]
	}
	return dst
}

// WeightedEntries returns the stored counters sorted by decreasing count.
func (r *R[K]) WeightedEntries() []core.WeightedEntry[K] {
	return r.AppendWeightedEntries(make([]core.WeightedEntry[K], 0, len(r.slots)), -1)
}

// Capacity returns m.
func (r *R[K]) Capacity() int { return r.m }

// Len returns the number of stored counters.
func (r *R[K]) Len() int { return len(r.slots) }

// TotalWeight returns Σ b_i processed so far; the stored counters always
// sum to exactly this value once the structure is full or all items fit.
func (r *R[K]) TotalWeight() float64 { return r.total }

// Reset restores the empty state, retaining the map and element storage
// so a reset structure keeps updating allocation-free (the window
// layer's epoch rotation relies on this).
//
//hh:noalloc
func (r *R[K]) Reset() {
	clear(r.pos)
	// Zero the slots so they do not pin evicted keys for GC.
	clear(r.slots)
	r.slots = r.slots[:0]
	r.heap = r.heap[:0]
	r.at = r.at[:0]
	r.total = 0
}

// Scale multiplies every stored counter, error term and the running
// total by f > 0 — the renormalization primitive of the exponential-
// decay layer. All of R's state is linear in the update weights, so
// scaling is exact up to float rounding and preserves the heap order
// and every guarantee.
//
//hh:noalloc
func (r *R[K]) Scale(f float64) {
	for i := range r.slots {
		r.slots[i].count *= f
		r.slots[i].err *= f
	}
	r.total *= f
}

// Guarantee returns the Theorem 10 tail constants A = B = 1.
func (r *R[K]) Guarantee() core.TailGuarantee { return core.TailGuarantee{A: 1, B: 1} }

// less orders heap positions i and j by their slots' counts.
//
//hh:noalloc
func (r *R[K]) less(i, j int) bool {
	return r.slots[r.heap[i]].count < r.slots[r.heap[j]].count
}

//hh:noalloc
func (r *R[K]) swap(i, j int) {
	r.heap[i], r.heap[j] = r.heap[j], r.heap[i]
	r.at[r.heap[i]] = int32(i)
	r.at[r.heap[j]] = int32(j)
}

//hh:noalloc
func (r *R[K]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !r.less(i, parent) {
			return
		}
		r.swap(i, parent)
		i = parent
	}
}

//hh:noalloc
func (r *R[K]) siftDown(i int) {
	n := len(r.heap)
	for {
		l, rt := 2*i+1, 2*i+2
		small := i
		if l < n && r.less(l, small) {
			small = l
		}
		if rt < n && r.less(rt, small) {
			small = rt
		}
		if small == i {
			return
		}
		r.swap(i, small)
		i = small
	}
}
