package arena

import (
	"math/bits"
	"reflect"
	"strings"
	"unsafe"
)

// Index is the key → counter-slot mapping behind the counter
// structures (the keyIndex of internal/spacesaving and
// internal/frequent). The map implementation aliases whatever keys it
// is handed (the structures run their clone hook first); the arena
// implementation interns every retained key into its slabs and hands
// back slab-aliased views, which is why exported entries must pass
// through Materialize.
type Index[K comparable] interface {
	// Get returns the slot stored for k, and k's index hash for a
	// following Put or Delete of k — a miss then inserts without hashing
	// the key again. The map implementation returns hash 0 (Go maps hash
	// internally, and its Put and Delete ignore the hash).
	//
	//hh:noalloc
	Get(k K) (v int32, h uint64, ok bool)
	// GetHashed is Get with the key hash precomputed by the caller. The
	// hash must come from the same seeded FNV-1a family this index was
	// built with (the root package's keyHasher) — the sharded batch
	// partitioner computes exactly that hash once per key, so batch
	// kernels probe without rehashing. The map implementation ignores
	// the hash (Go maps hash internally).
	//
	//hh:noalloc
	GetHashed(k K, h uint64) (int32, bool)
	// Put stores k → v, where h is k's index hash (from Get or the
	// partition hash), and returns the retained key: k itself on the map
	// path, a slab-aliased view on the arena path. The structure must
	// store the returned key, not k.
	//
	//hh:noalloc
	Put(k K, h uint64, v int32) K
	// Delete removes the entry for k, recycling its arena region; every
	// alias of the retained key becomes invalid. h32 is the low 32 bits
	// of k's index hash and v its stored value: the arena path finds the
	// slot by (h32, v) without reading k's bytes (values are node
	// indices, unique among live keys); the map path deletes k.
	//
	//hh:noalloc
	Delete(k K, h32 uint32, v int32)
	// Len returns the number of stored keys.
	//
	//hh:noalloc
	Len() int
	// Reset empties the index, retaining storage for reuse.
	//
	//hh:noalloc
	Reset()
	// Materialize copies a retained key for export across the query or
	// wire boundary (identity on the map path — those keys are owned).
	// It is the one annotated path allowed to allocate: detached keys
	// must outlive the region they alias.
	//
	//hh:noalloc
	Materialize(k K) K
	// Mem reports the index footprint; ok is false on the map path.
	Mem() (MemStats, bool)
}

// NewMap returns the map-backed Index — the default for every key
// type, and the only path for non-string keys. The concrete Map is
// returned (not the interface) so structures can also keep a
// devirtualized handle for their ingest hot path.
func NewMap[K comparable](m int) Map[K] {
	return make(Map[K], m)
}

// NewForString returns the arena-backed Index when K is a string kind,
// pre-sized so m live keys never trigger a rehash; ok is false for any
// other key type (callers keep the map path).
func NewForString[K comparable](m int, seed uint64) (ix Index[K], ok bool) {
	var zero K
	if reflect.TypeOf(zero).Kind() != reflect.String {
		return nil, false
	}
	return strIndex[K]{ix: NewStringIndex(m, seed)}, true
}

// asString reinterprets a string-kind K as string without boxing; asK
// is the inverse. Callers guarantee K's kind (NewForString checked).
//
//hh:noalloc
func asString[K comparable](k K) string { return *(*string)(unsafe.Pointer(&k)) }

//hh:noalloc
func asK[K comparable](s string) K { return *(*K)(unsafe.Pointer(&s)) }

// Map is the default Index: a plain Go map, aliasing its keys. It is
// a named map type so a structure holding the concrete Map can index
// it directly on its hot path — an interface call per Get/Put/Delete
// costs real throughput on eviction-heavy streams, and the default
// path must not pay for the arena's abstraction.
type Map[K comparable] map[K]int32

//hh:noalloc
func (ix Map[K]) Get(k K) (int32, uint64, bool) { v, ok := ix[k]; return v, 0, ok }

//hh:noalloc
func (ix Map[K]) GetHashed(k K, _ uint64) (int32, bool) { v, ok := ix[k]; return v, ok }

//hh:noalloc
func (ix Map[K]) Put(k K, _ uint64, v int32) K { ix[k] = v; return k }

//hh:noalloc
func (ix Map[K]) Delete(k K, _ uint32, _ int32) { delete(ix, k) }

//hh:noalloc
func (ix Map[K]) Len() int { return len(ix) }

//hh:noalloc
func (ix Map[K]) Reset() { clear(ix) }

//hh:noalloc
func (ix Map[K]) Materialize(k K) K { return k }

func (ix Map[K]) Mem() (MemStats, bool) { return MemStats{}, false }

// strIndex adapts StringIndex to Index[K] for string-kind K via no-op
// view conversions (the same reinterpretation borrow.go's cloner uses).
type strIndex[K comparable] struct {
	ix *StringIndex
}

//hh:noalloc
func (w strIndex[K]) Get(k K) (int32, uint64, bool) {
	h := w.ix.Hash(asString(k))
	v, ok := w.ix.GetHashed(asString(k), h)
	return v, h, ok
}

//hh:noalloc
func (w strIndex[K]) GetHashed(k K, h uint64) (int32, bool) { return w.ix.GetHashed(asString(k), h) }

//hh:noalloc
func (w strIndex[K]) Put(k K, h uint64, v int32) K { return asK[K](w.ix.Put(asString(k), h, v)) }

//hh:noalloc
func (w strIndex[K]) Delete(_ K, h32 uint32, v int32) { w.ix.Delete(h32, v) }

//hh:noalloc
func (w strIndex[K]) Len() int { return w.ix.Len() }

//hh:noalloc
func (w strIndex[K]) Reset() { w.ix.Reset() }

//hh:noalloc
func (w strIndex[K]) Materialize(k K) K {
	return asK[K](strings.Clone(asString(k))) //hh:allocok keys materialize at the query/wire boundary by contract
}

func (w strIndex[K]) Mem() (MemStats, bool) { return w.ix.Mem(), true }

// slot is one open-addressing table entry: the full 64-bit hash (so
// probes compare 8 bytes before touching key memory), the packed arena
// reference and key length, and the stored counter-slab index.
type slot struct {
	hash uint64
	off  uint32 // refNil marks the slot empty
	klen uint32
	val  int32
}

// StringIndex is the arena-backed open-addressing index: linear
// probing over a flat power-of-two slot array, tombstone-free deletion
// via backward shift, stop-the-world doubling (see the package comment
// for why not incremental). Keys are hashed with the same seeded
// FNV-1a family the root package's keyHasher uses for strings.
type StringIndex struct {
	ar     Arena
	slots  []slot
	mask   uint64
	shift  uint // 64 − log2(len(slots)), for home
	seed   uint64
	live   int
	growAt int // live threshold (3/4 load) that triggers doubling
}

// NewStringIndex builds an index pre-sized so m live keys stay under
// the 3/4 load factor — growth never fires for a structure that holds
// at most m keys.
func NewStringIndex(m int, seed uint64) *StringIndex {
	n, _ := IndexFootprint(m)
	x := &StringIndex{
		slots:  make([]slot, n),
		mask:   uint64(n - 1),
		shift:  uint(64 - bits.TrailingZeros(uint(n))),
		seed:   seed,
		growAt: n * 3 / 4,
	}
	x.ar.init()
	for i := range x.slots {
		x.slots[i].off = refNil
	}
	return x
}

// hashString is the seeded FNV-1a of the keyHasher family (summary.go
// fnv1a): the same mixing, so index distribution matches shard
// placement quality.
//
//hh:noalloc
func hashString(s string, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	seed ^= seed >> 33
	seed *= 0x9e3779b97f4a7c15
	h := uint64(offset) ^ (seed ^ seed>>29)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// home returns the home slot of a key whose hash has low 32 bits h32:
// a Fibonacci hash (the top bits of h32 · 2^64/φ), so every bit of the
// fragment reaches the slot number. Reading the hash's low bits
// directly would not do: a sharded summary places keys by h mod p, so
// within one shard's index those bits are constant and all but 1/p of
// the home slots would go unused. Taking only the low 32 bits is what
// lets Delete find a slot from the fragment a node keeps; the table
// never passes 2^32 slots (see Delete), so they hold enough bits.
//
//hh:noalloc
func (x *StringIndex) home(h32 uint32) uint64 {
	return (uint64(h32) * 0x9e3779b97f4a7c15) >> x.shift
}

// Hash returns k's index hash: the seeded FNV-1a of the keyHasher
// family, the value Put and GetHashed take.
//
//hh:noalloc
func (x *StringIndex) Hash(k string) uint64 { return hashString(k, x.seed) }

// Get returns the slot stored for k.
//
//hh:noalloc
func (x *StringIndex) Get(k string) (int32, bool) { return x.GetHashed(k, hashString(k, x.seed)) }

// GetHashed is Get with h = Hash(k) precomputed by the caller — the
// counter structures hash a key once and reuse the hash down the miss
// path, and the two-pass batch kernels hand down the partition hash
// (the identical keyHasher FNV-1a family with the identical seed), so
// a probe touches only the slot array and key bytes.
//
//hh:noalloc
func (x *StringIndex) GetHashed(k string, h uint64) (int32, bool) {
	if x.live == 0 {
		return 0, false
	}
	i := x.home(uint32(h))
	for {
		s := &x.slots[i]
		if s.off == refNil {
			return 0, false
		}
		if s.hash == h && int(s.klen) == len(k) && x.ar.view(s.off, int(s.klen)) == k {
			return s.val, true
		}
		i = (i + 1) & x.mask
	}
}

// Put interns k into the arena, stores k → v, and returns the
// slab-aliased view of the retained key; h must be Hash(k). Re-putting
// a stored key overwrites its value and returns the existing view (no
// second copy).
//
//hh:noalloc
func (x *StringIndex) Put(k string, h uint64, v int32) string {
	if x.live >= x.growAt {
		x.grow()
	}
	i := x.home(uint32(h))
	for {
		s := &x.slots[i]
		if s.off == refNil {
			r := x.ar.alloc(len(k))
			copy(x.ar.bytes(r, len(k)), k)
			*s = slot{hash: h, off: r, klen: uint32(len(k)), val: v}
			x.live++
			return x.ar.view(r, len(k))
		}
		if s.hash == h && int(s.klen) == len(k) && x.ar.view(s.off, int(s.klen)) == k {
			s.val = v
			return x.ar.view(s.off, int(s.klen))
		}
		i = (i + 1) & x.mask
	}
}

// Delete removes the entry whose hash has low 32 bits h32 and whose
// value is v, and recycles its region; a missing entry is a no-op.
// Matching on the value instead of the key never reads key bytes — the
// counter structures delete an evicted node's key, whose bytes are
// cold, by its node index and the hash fragment the node keeps. Values
// must be unique among live entries; node indices are non-negative
// int32s, so at most 2^31 entries are live and the table never passes
// 2^32 slots. Backward shift keeps every surviving key's probe chain
// unbroken without tombstones, so the table never degrades under
// eviction churn.
//
//hh:noalloc
func (x *StringIndex) Delete(h32 uint32, v int32) {
	if x.live == 0 {
		return
	}
	i := x.home(h32)
	for {
		s := &x.slots[i]
		if s.off == refNil {
			return
		}
		if s.val == v && uint32(s.hash) == h32 {
			break
		}
		i = (i + 1) & x.mask
	}
	x.ar.release(x.slots[i].off, int(x.slots[i].klen))
	x.live--
	j := i
	for {
		j = (j + 1) & x.mask
		s := x.slots[j]
		if s.off == refNil {
			break
		}
		// Slot j may move back to i only if its probe chain reaches back
		// that far: distance(home→j) >= distance(i→j).
		if (j-x.home(uint32(s.hash)))&x.mask >= (j-i)&x.mask {
			x.slots[i] = s
			i = j
		}
	}
	x.slots[i] = slot{off: refNil}
}

// grow doubles the slot array and rehashes every live slot —
// stop-the-world, cold by construction (see NewStringIndex).
//
//hh:noalloc
func (x *StringIndex) grow() {
	old := x.slots
	n := 2 * len(old)
	x.slots = make([]slot, n) //hh:allocok power-of-two growth; pre-sizing keeps this off the steady-state path
	x.mask = uint64(n - 1)
	x.shift--
	x.growAt = n * 3 / 4
	for i := range x.slots {
		x.slots[i].off = refNil
	}
	for _, s := range old {
		if s.off == refNil {
			continue
		}
		i := x.home(uint32(s.hash))
		for x.slots[i].off != refNil {
			i = (i + 1) & x.mask
		}
		x.slots[i] = s
	}
}

// Len returns the number of stored keys.
//
//hh:noalloc
func (x *StringIndex) Len() int { return x.live }

// Reset empties the index and arena, retaining both the slot array and
// the slabs for allocation-free reuse.
//
//hh:noalloc
func (x *StringIndex) Reset() {
	for i := range x.slots {
		x.slots[i] = slot{off: refNil}
	}
	x.live = 0
	x.ar.Reset()
}

// Mem reports the combined arena + slot-array footprint.
func (x *StringIndex) Mem() MemStats {
	ms := x.ar.Mem()
	ms.IndexSlots = len(x.slots)
	ms.IndexBytes = uint64(len(x.slots)) * uint64(unsafe.Sizeof(slot{}))
	return ms
}

// RegionSize returns the class-rounded slab bytes a key of n bytes
// occupies (a dedicated slab of exactly n bytes when the key outsizes
// a slab). Exported so sizing tools (hhstat) can estimate a decoded
// blob's would-be serving footprint without building an index.
func RegionSize(n int) int {
	if n > SlabSize {
		return n
	}
	return 1 << classFor(n)
}

// IndexFootprint returns the slot count and backing bytes of an index
// pre-sized for m keys — NewStringIndex's sizing rule, exported for
// the same estimators.
func IndexFootprint(m int) (slots int, bytes uint64) {
	n := 8
	for n*3/4 <= m {
		n <<= 1
	}
	return n, uint64(n) * uint64(unsafe.Sizeof(slot{}))
}
