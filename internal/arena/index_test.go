package arena

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestClassFor pins the size-class geometry: power-of-two rounding with
// an 8-byte floor (the freelist link needs 4 bytes).
func TestClassFor(t *testing.T) {
	cases := map[int]uint{0: 3, 1: 3, 8: 3, 9: 4, 16: 4, 17: 5, 255: 8, 256: 8, 257: 9, SlabSize: 16}
	for n, want := range cases {
		if got := classFor(n); got != want {
			t.Errorf("classFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// put and del drive the hashed insert and the value-matched delete the
// way the counter structures do: hash once, delete by (hash fragment,
// stored value).
func put(x *StringIndex, k string, v int32) string { return x.Put(k, x.Hash(k), v) }

func del(x *StringIndex, k string, v int32) { x.Delete(uint32(x.Hash(k)), v) }

// TestStringIndexBasic drives the fundamental operations, including
// empty-string keys and value overwrites.
func TestStringIndexBasic(t *testing.T) {
	x := NewStringIndex(16, 1)
	if _, ok := x.Get("a"); ok {
		t.Fatal("Get on empty index reported a hit")
	}
	ka := put(x, "a", 1)
	if ka != "a" {
		t.Fatalf("Put returned %q, want \"a\"", ka)
	}
	if v, ok := x.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	put(x, "a", 2)
	if v, _ := x.Get("a"); v != 2 {
		t.Fatalf("overwrite: Get(a) = %d, want 2", v)
	}
	if k := put(x, "", 3); k != "" {
		t.Fatalf("Put(\"\") returned %q", k)
	}
	if v, ok := x.Get(""); !ok || v != 3 {
		t.Fatalf("Get(\"\") = %d, %v", v, ok)
	}
	if x.Len() != 2 {
		t.Fatalf("Len = %d, want 2", x.Len())
	}
	del(x, "a", 1) // the value before the overwrite: must not match
	if v, ok := x.Get("a"); !ok || v != 2 {
		t.Fatalf("stale-value Delete removed a: Get(a) = %d, %v", v, ok)
	}
	del(x, "a", 2)
	if _, ok := x.Get("a"); ok {
		t.Fatal("Get after Delete reported a hit")
	}
	del(x, "never-inserted", 9) // must be a no-op
	if x.Len() != 1 {
		t.Fatalf("Len = %d, want 1", x.Len())
	}
	x.Reset()
	if x.Len() != 0 {
		t.Fatalf("Len after Reset = %d", x.Len())
	}
	if _, ok := x.Get(""); ok {
		t.Fatal("Get after Reset reported a hit")
	}
}

// TestStringIndexAliasStability pins the retained-key contract: the
// view Put returns stays equal to the key while the key is live, even
// as unrelated churn recycles other regions.
func TestStringIndexAliasStability(t *testing.T) {
	x := NewStringIndex(8, 7)
	keep := put(x, "long-lived-key", 42)
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("churn-%d", i)
		put(x, k, int32(i))
		del(x, k, int32(i))
	}
	if keep != "long-lived-key" {
		t.Fatalf("retained view corrupted by churn: %q", keep)
	}
	if v, ok := x.Get("long-lived-key"); !ok || v != 42 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
}

// TestStringIndexBigKeys covers keys longer than a slab: dedicated
// slabs, first-fit recycling.
func TestStringIndexBigKeys(t *testing.T) {
	x := NewStringIndex(8, 3)
	big := strings.Repeat("x", SlabSize+100)
	bigger := strings.Repeat("y", 2*SlabSize)
	put(x, big, 1)
	if v, ok := x.Get(big); !ok || v != 1 {
		t.Fatalf("Get(big) = %d, %v", v, ok)
	}
	del(x, big, 1)
	slabs := x.Mem().Slabs
	// A same-size big key must reuse the freed dedicated slab.
	put(x, big, 2)
	if got := x.Mem().Slabs; got != slabs {
		t.Fatalf("same-size big key did not recycle: %d slabs, had %d", got, slabs)
	}
	put(x, bigger, 3)
	for _, k := range []string{big, bigger} {
		if _, ok := x.Get(k); !ok {
			t.Fatalf("big key %d bytes lost", len(k))
		}
	}
}

// applyOps drives an index and a map oracle through a randomized op
// sequence and fails on the first divergence: hashed inserts and
// overwrites, value-matched deletes (with the live value, with a stale
// one, and of absent keys), Get and GetHashed probes, and Resets.
// Values are op indices, so they are unique among live keys as the
// value-matched delete requires. Returned strings from Put are checked
// for equality (they may alias the arena).
func applyOps(t *testing.T, x *StringIndex, ops []byte) {
	t.Helper()
	oracle := map[string]int32{}
	keyFor := func(b byte) string {
		// 64 distinct keys of wildly varying length exercise several size
		// classes and probe collisions.
		n := int(b % 64)
		return strings.Repeat("k", n%7) + fmt.Sprintf("key-%d-%s", n, strings.Repeat("pad", n%5))
	}
	check := func(i int, k string) {
		want, in := oracle[k]
		got, ok := x.Get(k)
		hgot, hok := x.GetHashed(k, x.Hash(k))
		if ok != in || hok != in || (in && (got != want || hgot != want)) {
			t.Fatalf("op %d: Get(%q) = %d, %v; GetHashed = %d, %v; oracle %d, %v", i, k, got, ok, hgot, hok, want, in)
		}
	}
	for i, op := range ops {
		k := keyFor(op)
		switch op % 8 {
		case 0, 1, 2: // insert/overwrite
			v := int32(i)
			if ret := put(x, k, v); ret != k {
				t.Fatalf("op %d: Put(%q) returned %q", i, k, ret)
			}
			oracle[k] = v
		case 3, 4: // delete by the live value; an absent key is a no-op
			v, in := oracle[k]
			if !in {
				v = int32(i) // never stored
			}
			del(x, k, v)
			delete(oracle, k)
		case 5: // a stale or foreign value must not delete k
			del(x, k, -1-int32(i))
			check(i, k)
		case 6:
			check(i, k)
		case 7:
			if op%32 == 7 {
				x.Reset()
				clear(oracle)
			} else {
				check(i, k)
			}
		}
		if x.Len() != len(oracle) {
			t.Fatalf("op %d: Len = %d, oracle %d", i, x.Len(), len(oracle))
		}
	}
	for k := range oracle {
		check(len(ops), k)
	}
	// Probe a few known-absent keys.
	for _, k := range []string{"absent", "", "zzz"} {
		check(len(ops), k)
	}
}

// TestStringIndexOracle is the property test: randomized
// insert/overwrite/delete/probe/Reset sequences against a
// map[string]int32 oracle, at a deliberately tiny initial size so
// growth rehashes fire.
func TestStringIndexOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		ops := make([]byte, 2000)
		rng.Read(ops)
		x := NewStringIndex(1, uint64(round)) // min-size: forces doubling
		applyOps(t, x, ops)
		if n := len(x.slots); n <= 8 {
			t.Fatalf("round %d: table never grew past %d slots", round, n)
		}
	}
}

// FuzzStringIndexOps lets the fuzzer drive the same oracle harness.
func FuzzStringIndexOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 7, 0, 0, 2})
	f.Add([]byte("insert-delete-insert"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		applyOps(t, NewStringIndex(1, 99), ops)
	})
}

// TestStringIndexShardProbeLength pins the home-slot choice: a sharded
// summary hands each shard's index only keys with h ≡ s (mod p), so
// within one shard the hash's low bits are constant. One shard's worth
// of sequential decimal keys must still average at most two probes per
// key, as in an unsharded index.
func TestStringIndexShardProbeLength(t *testing.T) {
	for _, p := range []uint64{1, 8} {
		x := NewStringIndex(1024, 7)
		for i, n := 0, 0; n < 1024; i++ {
			k := strconv.Itoa(i)
			if x.Hash(k)%p == 0 {
				put(x, k, int32(n))
				n++
			}
		}
		var probes uint64
		for i, s := range x.slots {
			if s.off != refNil {
				probes += (uint64(i)-x.home(uint32(s.hash)))&x.mask + 1
			}
		}
		if mean := float64(probes) / float64(x.Len()); mean > 2 {
			t.Errorf("keys of shard 0 of %d: mean probe length %.2f, want <= 2", p, mean)
		}
	}
}

// TestArenaBoundedGrowth is the eviction-churn invariant: an
// eviction-heavy workload (every insert followed by a delete, Zipf-ish
// mix of key lengths, vastly more distinct keys than live slots) must
// recycle regions through the free lists instead of growing the slabs.
func TestArenaBoundedGrowth(t *testing.T) {
	const live = 1024
	x := NewStringIndex(live, 5)
	rng := rand.New(rand.NewSource(2))
	key := func(i int) string {
		return fmt.Sprintf("%s-%d", strings.Repeat("p", rng.Intn(48)), i)
	}
	// Fill to the live bound, tracking the live set in a ring so every
	// delete names a key that is actually stored.
	ring := make([]string, live)
	// Each ring position owns value i%live, unique among live keys.
	for i := range ring {
		ring[i] = key(i)
		put(x, ring[i], int32(i))
	}
	churn := func(n int) {
		for i := 0; i < n; i++ {
			del(x, ring[i%live], int32(i%live))
			ring[i%live] = key(rng.Int())
			put(x, ring[i%live], int32(i%live))
		}
	}
	churn(20 * live)
	after := x.Mem()
	churn(200 * live)
	final := x.Mem()
	if final.SlabBytes > after.SlabBytes*2 {
		t.Fatalf("arena grew unboundedly under eviction churn: %d -> %d slab bytes", after.SlabBytes, final.SlabBytes)
	}
	if final.LiveKeys != live {
		t.Fatalf("LiveKeys = %d, want %d", final.LiveKeys, live)
	}
	if final.LiveBytes+final.FreeBytes > final.SlabBytes {
		t.Fatalf("accounting: live %d + free %d > slabs %d", final.LiveBytes, final.FreeBytes, final.SlabBytes)
	}
}

// TestArenaResetReuse pins the slab-retaining Reset: a reset index
// refills without growing its backing.
func TestArenaResetReuse(t *testing.T) {
	x := NewStringIndex(512, 11)
	fill := func() {
		for i := 0; i < 512; i++ {
			put(x, fmt.Sprintf("key-%d-%s", i, strings.Repeat("f", i%33)), int32(i))
		}
	}
	fill()
	x.Reset()
	before := x.Mem().SlabBytes
	for round := 0; round < 5; round++ {
		fill()
		x.Reset()
	}
	if got := x.Mem().SlabBytes; got != before {
		t.Fatalf("Reset did not retain/reuse slabs: %d -> %d bytes", before, got)
	}
}

func TestMapIndex(t *testing.T) {
	ix := NewMap[uint64](8)
	ix.Put(7, 0, 1)
	if v, _, ok := ix.Get(7); !ok || v != 1 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	if k := ix.Materialize(7); k != 7 {
		t.Fatalf("Materialize = %d", k)
	}
	if _, ok := ix.Mem(); ok {
		t.Fatal("map index claimed arena stats")
	}
	ix.Delete(7, 0, 1)
	if ix.Len() != 0 {
		t.Fatalf("Len = %d", ix.Len())
	}
}

// TestNewForString covers the kind gate: string kinds get the arena,
// everything else declines.
func TestNewForString(t *testing.T) {
	if _, ok := NewForString[uint64](8, 1); ok {
		t.Fatal("uint64 got an arena index")
	}
	type tenant string
	ix, ok := NewForString[tenant](8, 1)
	if !ok {
		t.Fatal("named string kind declined")
	}
	_, h, ok := ix.Get(tenant("t0"))
	if ok {
		t.Fatal("Get on an empty index reported a hit")
	}
	ret := ix.Put(tenant("t0"), h, 5)
	if ret != "t0" {
		t.Fatalf("Put returned %q", ret)
	}
	if v, h2, ok := ix.Get(tenant("t0")); !ok || v != 5 || h2 != h {
		t.Fatalf("Get = %d, %#x, %v; want 5, %#x", v, h2, ok, h)
	}
	m := ix.Materialize(ret)
	if m != "t0" {
		t.Fatalf("Materialize = %q", m)
	}
	ix.Delete(ret, uint32(h), 5)
	if _, _, ok := ix.Get(tenant("t0")); ok || ix.Len() != 0 {
		t.Fatalf("Delete left the key: Len = %d", ix.Len())
	}
}
