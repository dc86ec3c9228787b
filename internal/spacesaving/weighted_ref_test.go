package spacesaving

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
)

// refR is the previous SPACESAVINGR layout, kept as a test-only
// reference: one heap of whole counters whose sifts rewrite the key map
// on every swap. R must stay bit-identical to it — same counts, errors,
// totals, minimum and entry order — for every operation sequence.
type refR[K comparable] struct {
	m     int
	pos   map[K]int
	elems []rElem[K]
	total float64
}

func newRefR[K comparable](m int) *refR[K] {
	return &refR[K]{m: m, pos: make(map[K]int, m)}
}

func (r *refR[K]) UpdateWeighted(item K, b float64) {
	r.total += b
	if i, ok := r.pos[item]; ok {
		r.elems[i].count += b
		r.siftDown(i)
		return
	}
	if len(r.elems) < r.m {
		r.elems = append(r.elems, rElem[K]{item: item, count: b})
		r.pos[item] = len(r.elems) - 1
		r.siftUp(len(r.elems) - 1)
		return
	}
	victim := r.elems[0]
	delete(r.pos, victim.item)
	r.elems[0] = rElem[K]{item: item, count: victim.count + b, err: victim.count}
	r.pos[item] = 0
	r.siftDown(0)
}

func (r *refR[K]) Absorb(item K, count, err float64) {
	if count <= 0 {
		return
	}
	r.total += count
	if i, ok := r.pos[item]; ok {
		r.elems[i].count += count
		r.elems[i].err += err
		r.siftDown(i)
		return
	}
	if len(r.elems) < r.m {
		r.elems = append(r.elems, rElem[K]{item: item, count: count, err: err})
		r.pos[item] = len(r.elems) - 1
		r.siftUp(len(r.elems) - 1)
		return
	}
	victim := r.elems[0]
	delete(r.pos, victim.item)
	r.elems[0] = rElem[K]{item: item, count: victim.count + count, err: victim.count + err}
	r.pos[item] = 0
	r.siftDown(0)
}

func (r *refR[K]) EstimateWeighted(item K) float64 {
	if i, ok := r.pos[item]; ok {
		return r.elems[i].count
	}
	return 0
}

func (r *refR[K]) ErrorOf(item K) float64 {
	if i, ok := r.pos[item]; ok {
		return r.elems[i].err
	}
	return 0
}

func (r *refR[K]) MinCount() float64 {
	if len(r.elems) < r.m || len(r.elems) == 0 {
		return 0
	}
	return r.elems[0].count
}

func (r *refR[K]) WeightedEntries() []core.WeightedEntry[K] {
	out := make([]core.WeightedEntry[K], 0, len(r.elems))
	for _, e := range r.elems {
		out = append(out, core.WeightedEntry[K]{Item: e.item, Count: e.count, Err: e.err})
	}
	core.SortWeightedEntries(out)
	return out
}

func (r *refR[K]) Reset() {
	clear(r.pos)
	r.elems = r.elems[:0]
	r.total = 0
}

func (r *refR[K]) Scale(f float64) {
	for i := range r.elems {
		r.elems[i].count *= f
		r.elems[i].err *= f
	}
	r.total *= f
}

func (r *refR[K]) clone() *refR[K] {
	c := &refR[K]{m: r.m, pos: make(map[K]int, len(r.pos)), elems: append([]rElem[K](nil), r.elems...), total: r.total}
	for k, v := range r.pos {
		c.pos[k] = v
	}
	return c
}

func (r *refR[K]) swap(i, j int) {
	r.elems[i], r.elems[j] = r.elems[j], r.elems[i]
	r.pos[r.elems[i].item] = i
	r.pos[r.elems[j].item] = j
}

func (r *refR[K]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if r.elems[parent].count <= r.elems[i].count {
			return
		}
		r.swap(i, parent)
		i = parent
	}
}

func (r *refR[K]) siftDown(i int) {
	n := len(r.elems)
	for {
		l, rt := 2*i+1, 2*i+2
		small := i
		if l < n && r.elems[l].count < r.elems[small].count {
			small = l
		}
		if rt < n && r.elems[rt].count < r.elems[small].count {
			small = rt
		}
		if small == i {
			return
		}
		r.swap(i, small)
		i = small
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkRMatchesRef compares every observable of got against want,
// including the decreasing-count entry order with its tie order.
func checkRMatchesRef(t *testing.T, step int, got *R[uint64], want *refR[uint64], universe uint64) {
	t.Helper()
	if got.Len() != len(want.elems) || !sameBits(got.TotalWeight(), want.total) || !sameBits(got.MinCount(), want.MinCount()) {
		t.Fatalf("step %d: len/total/min = %d/%v/%v, reference %d/%v/%v", step,
			got.Len(), got.TotalWeight(), got.MinCount(), len(want.elems), want.total, want.MinCount())
	}
	ge, we := got.WeightedEntries(), want.WeightedEntries()
	for i := range we {
		if ge[i].Item != we[i].Item || !sameBits(ge[i].Count, we[i].Count) || !sameBits(ge[i].Err, we[i].Err) {
			t.Fatalf("step %d: entry %d = %+v, reference %+v", step, i, ge[i], we[i])
		}
	}
	for x := uint64(0); x < universe; x++ {
		if !sameBits(got.EstimateWeighted(x), want.EstimateWeighted(x)) || !sameBits(got.ErrorOf(x), want.ErrorOf(x)) {
			t.Fatalf("step %d: item %d estimate/err = %v/%v, reference %v/%v", step, x,
				got.EstimateWeighted(x), got.ErrorOf(x), want.EstimateWeighted(x), want.ErrorOf(x))
		}
	}
}

// TestRMatchesMapSwapReference drives R and the reference through the
// same random mix of weighted updates, absorbs (integral weights force
// count ties, real ones do not), scales, resets and clones, and
// requires bit-identical state after every operation.
func TestRMatchesMapSwapReference(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		m := 1 + rng.IntN(24)
		universe := uint64(2 + rng.IntN(80))
		got, want := NewR[uint64](m), newRefR[uint64](m)
		weight := func() float64 {
			if rng.IntN(2) == 0 {
				return float64(1 + rng.IntN(4))
			}
			return rng.Float64()*10 + 1e-3
		}
		for step := 0; step < 1500; step++ {
			x := rng.Uint64N(universe)
			switch op := rng.IntN(100); {
			case op < 60:
				w := weight()
				got.UpdateWeighted(x, w)
				want.UpdateWeighted(x, w)
			case op < 94:
				c, e := weight(), 0.0
				switch rng.IntN(4) {
				case 0, 1:
					e = c * rng.Float64()
				case 2:
					// A foreign blob may carry a negative-zero error; it
					// must survive later updates exactly as before.
					e = math.Copysign(0, -1)
				}
				if rng.IntN(10) == 0 {
					c = 0 // ignored by both
				}
				got.Absorb(x, c, e)
				want.Absorb(x, c, e)
			case op < 96:
				f := 0.25 + rng.Float64()
				got.Scale(f)
				want.Scale(f)
			case op < 97:
				got.Reset()
				want.Reset()
			default:
				// A clone must carry on exactly as its original would.
				got, want = got.Clone(), want.clone()
			}
			checkRMatchesRef(t, step, got, want, universe)
		}
	}
}

// TestRCloneIndependent pins that a clone shares no mutable state with
// its original: updating one leaves the other's observables untouched.
func TestRCloneIndependent(t *testing.T) {
	r := NewR[uint64](4)
	for i := uint64(0); i < 10; i++ {
		r.UpdateWeighted(i%6, float64(i+1))
	}
	before := r.WeightedEntries()
	c := r.Clone()
	for i := uint64(0); i < 20; i++ {
		c.UpdateWeighted(100+i, 50)
	}
	after := r.WeightedEntries()
	if len(before) != len(after) {
		t.Fatalf("original changed length after clone updates: %d -> %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("original entry %d changed after clone updates: %+v -> %+v", i, before[i], after[i])
		}
	}
	if c.EstimateWeighted(119) == 0 || r.EstimateWeighted(119) != 0 {
		t.Fatal("clone update not isolated to the clone")
	}
}

func TestRRejectsOversizedCapacity(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: every m fits")
	}
	for _, f := range []func(){
		func() { NewR[uint64](math.MaxInt32 + 1) },
		func() { NewRSized[uint64](math.MaxInt32+1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("m > MaxInt32 accepted")
				}
			}()
			f()
		}()
	}
}
