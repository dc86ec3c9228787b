// Package coalesce holds the one duplicate-grouping table of the
// ingest paths: the sharded tier's in-batch coalescing, the counted
// entry Summary.UpdateCounts, and the hhwire client's per-frame key
// folding all group a batch's repeated keys through it.
//
// The table maps a key's hash to the index of the key's group in a
// caller-owned slice of distinct keys. Entries are generation-stamped,
// so clearing between batches is a single counter bump rather than an
// O(len(table)) wipe, and the table is sized to twice the largest
// batch seen, then reused: the steady state allocates nothing.
package coalesce

import "math/bits"

// Table is a generation-stamped open-addressing table from key hashes
// to group indexes. The zero value is ready for Reset. A Table is not
// safe for concurrent use; callers pool or own one per writer.
type Table struct {
	slots []slot
	gen   uint32
	// shift selects the end of the hash a key's home slot comes from:
	// 0 for the low bits, 64 − log2(len(slots)) for the high bits (see
	// Reset).
	shift uint
	mask  uint64
}

// slot is one table entry: the key's full hash for cheap rejection,
// the stamping generation, and the group's index in the caller's key
// slice. The key itself is not stored — the caller's slice holds it —
// keeping the entry at 16 bytes, which matters because every probe is
// a random access into a table sized 2× the batch.
type slot struct {
	h   uint64
	gen uint32
	idx int32
}

// Reset readies t for a batch of at most n keys and forgets every
// group of the previous batch. lowBits selects the end of the hash
// home slots come from — whichever end the caller's hash family mixes
// every key byte into: the low bits for FNV-1a string hashes, whose
// last bytes barely reach the high bits (4096 sequential decimal keys
// read from the high bits pile into probe chains averaging 81 in 8192
// slots, against 1.4 from the low bits), the high bits for
// multiplicative integer mixes, which spread sequential integers
// without collisions there. Shard placement (h mod p) may read the
// same low bits: one table serves every shard, so sharing them costs
// nothing.
//
//hh:noalloc
func (t *Table) Reset(n int, lowBits bool) {
	if need := 2 * n; need > len(t.slots) || len(t.slots) == 0 {
		size := 64
		for size < need {
			size <<= 1
		}
		t.slots = make([]slot, size) //hh:allocok the table grows to the high-water batch size, then is reused
		t.gen = 0
	}
	t.mask = uint64(len(t.slots) - 1)
	t.shift = 0
	if !lowBits {
		t.shift = 64 - uint(bits.TrailingZeros(uint(len(t.slots))))
	}
	t.gen++
	if t.gen == 0 {
		// Generation counter wrapped: stale entries from 2^32 batches
		// ago could alias the new generation, so take the one-off O(len)
		// wipe.
		clear(t.slots)
		t.gen = 1
	}
}

// Find returns the group index of key, whose hash is h, among the
// distinct keys of the current batch. groups holds those keys at the
// indexes Find handed out: when key's group exists, Find returns its
// index and true; otherwise it claims a slot for a new group at index
// len(groups) and returns that index and false, and the caller must
// append key to groups before the next call. Candidate identity is
// confirmed by the full hash and then the key itself, so a colliding
// hash never merges distinct keys.
//
// The table must hold fewer groups than it has slots — guaranteed
// when each batch stays within the n given to Reset. Find stays within
// the inliner's budget (the locals are hoisted so the probe loop runs
// on registers): every ingest path calls it once per key.
//
//hh:noalloc
func Find[K comparable](t *Table, h uint64, key K, groups []K) (int, bool) {
	slots, gen, mask := t.slots, t.gen, t.mask
	pos := (h >> t.shift) & mask
	for {
		s := &slots[pos]
		if s.gen != gen {
			s.h, s.gen, s.idx = h, gen, int32(len(groups))
			return len(groups), false
		}
		if s.h == h && groups[s.idx] == key {
			return int(s.idx), true
		}
		pos = (pos + 1) & mask
	}
}

// MeanProbe reports the current batch's group count and the mean probe
// length of a successful lookup over them (displacement from the home
// slot, plus one): the diagnostic behind the home-slot choice of Reset.
func (t *Table) MeanProbe() (groups int, mean float64) {
	mask := uint64(len(t.slots) - 1)
	var probes uint64
	for i, s := range t.slots {
		if s.gen != t.gen || t.gen == 0 {
			continue
		}
		probes += (uint64(i)-(s.h>>t.shift)&mask)&mask + 1
		groups++
	}
	if groups == 0 {
		return 0, 0
	}
	return groups, float64(probes) / float64(groups)
}
