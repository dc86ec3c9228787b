package heavyhitters_test

// Tests of the window layer: epoch-ring rotation against an exact
// sliding-window oracle (Zipf and adversarial rotation-boundary
// streams), tick windows under an injected clock, the exponential-decay
// variant, sharded windows, merging, and the windowed codec frame.

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"sync"
	"testing"
	"time"

	hh "repro"
	"repro/internal/stream"
)

// windowedAlgos are the backends the epoch ring is tested over: the
// overestimating and the underestimating counter family.
var windowedAlgos = []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent, hh.AlgoLossyCounting}

// coveredAfter returns the item count the epoch ring covers after t
// unit items: the current (partial) epoch plus the E−1 most recent full
// epochs. Rotation is lazy — it happens before the write that would
// overfill — so at an exact boundary the ring still holds E full
// epochs.
func coveredAfter(t, epochLen uint64, epochs int) uint64 {
	if t <= epochLen*uint64(epochs) {
		return t
	}
	return (t-1)%epochLen + 1 + uint64(epochs-1)*epochLen
}

// exactWindowFreqs counts occurrences over the last covered items of s.
func exactWindowFreqs(s []uint64, covered int) map[uint64]float64 {
	freq := make(map[uint64]float64)
	for _, x := range s[len(s)-covered:] {
		freq[x]++
	}
	return freq
}

// TestWindowCoveredMass pins the rotation timing: N() must equal the
// closed-form covered count at every stream position, including exact
// epoch boundaries and their neighbors.
func TestWindowCoveredMass(t *testing.T) {
	const (
		window   = 100
		epochs   = 4
		epochLen = 25
	)
	s := hh.New[uint64](hh.WithCapacity(16), hh.WithWindow(window), hh.WithEpochs(epochs))
	for i := uint64(1); i <= 1000; i++ {
		s.Update(i % 7)
		if got, want := s.N(), float64(coveredAfter(i, epochLen, epochs)); got != want {
			t.Fatalf("after %d items: N() = %v, want %v", i, got, want)
		}
	}
	ws, ok := s.Window()
	if !ok {
		t.Fatal("Window() reported unwindowed")
	}
	if ws.Epochs != epochs || ws.EpochLen != epochLen || ws.Live != epochs {
		t.Errorf("Window() = %+v", ws)
	}
	if ws.Covered != s.N() {
		t.Errorf("Covered = %v, N = %v", ws.Covered, s.N())
	}
	if _, ok := hh.New[uint64]().Window(); ok {
		t.Error("unwindowed summary reported a window state")
	}
}

// TestWindowExpiresOldMass asserts the sliding behavior users actually
// rely on: an item that stops arriving disappears entirely once the
// ring has rotated past it.
func TestWindowExpiresOldMass(t *testing.T) {
	for _, algo := range windowedAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			const window = 1000
			s := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(8),
				hh.WithWindow(window), hh.WithEpochs(4))
			for i := 0; i < 5*window; i++ {
				s.Update(1)
			}
			if s.Estimate(1) == 0 {
				t.Fatal("hot item invisible while arriving")
			}
			// One full window of other traffic rotates item 1 out of
			// every epoch.
			for i := 0; i < window+window/4; i++ {
				s.Update(2)
			}
			if got := s.Estimate(1); got != 0 {
				t.Errorf("Estimate(1) = %v after a full window without arrivals, want 0", got)
			}
			if _, hi := s.EstimateBounds(2); hi < float64(window-window/4) {
				t.Errorf("upper bound on the live item = %v, below its certain window mass", hi)
			}
			if s.N() > float64(window) {
				t.Errorf("N() = %v exceeds the window %d", s.N(), window)
			}
		})
	}
}

// assertWindowInvariants checks, at one stream position, the acceptance
// property of the windowed HeavyHitters: against the exact frequencies
// of the covered suffix, (1) every reported interval contains the true
// windowed frequency, (2) every item with windowed frequency above
// (phi+eps)·N_w is reported, with eps = 1/m the per-epoch counter
// budget's classical error rate, and (3) no item is reported twice.
func assertWindowInvariants(t *testing.T, s hh.Summary[uint64], str []uint64, m int, phi float64) {
	t.Helper()
	covered := int(s.N())
	if covered <= 0 || covered > len(str) {
		t.Fatalf("covered %d outside stream of %d", covered, len(str))
	}
	freqs := exactWindowFreqs(str, covered)
	for e := range s.All() {
		lo, hi := s.EstimateBounds(e.Item)
		if f := freqs[e.Item]; lo > f+1e-6 || hi < f-1e-6 {
			t.Fatalf("item %d: bounds [%v, %v] exclude windowed frequency %v (covered %d)",
				e.Item, lo, hi, f, covered)
		}
	}
	hits := s.HeavyHitters(phi)
	reported := make(map[uint64]bool, len(hits))
	for _, h := range hits {
		if reported[h.Item] {
			t.Fatalf("item %d reported twice", h.Item)
		}
		reported[h.Item] = true
		if f := freqs[h.Item]; h.Lo > f+1e-6 || h.Hi < f-1e-6 {
			t.Fatalf("hit %d: bounds [%v, %v] exclude windowed frequency %v", h.Item, h.Lo, h.Hi, f)
		}
	}
	eps := 1 / float64(m)
	threshold := (phi + eps) * float64(covered)
	for item, f := range freqs {
		if f > threshold && !reported[item] {
			t.Fatalf("item %d has windowed frequency %v > (phi+eps)·N_w = %v but was not reported (covered %d)",
				item, f, threshold, covered)
		}
	}
}

// TestWindowHeavyHittersOracle is the acceptance test: windowed
// HeavyHitters checked against the exact sliding-window oracle on a
// Zipf stream and on the adversarial arrival orders, probing exact
// rotation boundaries and their neighbors.
func TestWindowHeavyHittersOracle(t *testing.T) {
	const (
		m        = 64
		window   = 8192
		epochs   = 8
		epochLen = window / epochs
		phi      = 0.05
	)
	streams := map[string][]uint64{
		"zipf-random": stream.Zipf(1000, 1.1, 30000, stream.OrderRandom, 11),
		"round-robin": stream.Zipf(200, 1.0, 30000, stream.OrderRoundRobin, 12),
		"blocks":      stream.Zipf(200, 1.2, 30000, stream.OrderBlocks, 13),
	}
	// An adversarial rotation-boundary stream: bursts of one item sized
	// exactly to straddle epoch boundaries, alternating with filler, so
	// burst mass is always split across two epochs.
	var boundary []uint64
	for len(boundary) < 30000 {
		for i := 0; i < epochLen/2; i++ {
			boundary = append(boundary, uint64(len(boundary)%97)+100)
		}
		for i := 0; i < epochLen; i++ {
			boundary = append(boundary, 7)
		}
	}
	streams["boundary-burst"] = boundary[:30000]

	for _, algo := range []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent} {
		for name, str := range streams {
			t.Run(algo.String()+"/"+name, func(t *testing.T) {
				s := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(m),
					hh.WithWindow(window), hh.WithEpochs(epochs))
				checkpoints := map[int]bool{
					epochLen: true, epochLen + 1: true, // first rotation
					window: true, window + 1: true, // ring full, first eviction
					2*window + epochLen/2: true, // mid-epoch, steady state
					3*window - 1:          true, // one before a boundary
					len(str):              true,
				}
				next := 0
				for i, x := range str {
					s.Update(x)
					if checkpoints[i+1] {
						assertWindowInvariants(t, s, str[:i+1], m, phi)
						next++
					}
				}
				if next < 5 {
					t.Fatalf("only %d checkpoints exercised", next)
				}
			})
		}
	}
}

// TestWindowBatchMatchesUnit is the batch-kernel equivalence matrix:
// across algo × window × shard × arena compositions, batch ingestion
// must be bit-identical to per-item ingestion — including
// rotation splits landing in identical epoch layouts. Where the
// sharded tier coalesces (counter algorithms other than LOSSYCOUNTING),
// the per-item reference replays each batch in first-occurrence-grouped
// order, which is the documented batch semantics (UpdateBatch); for
// the rest, arrival order is the reference.
func TestWindowBatchMatchesUnit(t *testing.T) {
	str := stream.Zipf(500, 1.1, 20000, stream.OrderRandom, 5)
	// A batch size coprime to the epoch length forces rotation splits
	// at every possible offset.
	const stride = 333
	for _, algo := range []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent, hh.AlgoLossyCounting} {
		for _, window := range []uint64{0, 4096} {
			for _, shards := range []int{0, 4} {
				for _, arena := range []bool{false, true} {
					// The constant pipeline=false segment keeps each case's
					// name stable from when the matrix also ran an
					// asynchronous ring-fed tier, so test history lines up.
					name := fmt.Sprintf("%v/window=%d/shards=%d/pipeline=false/arena=%v",
						algo, window, shards, arena)
					t.Run(name, func(t *testing.T) {
						opts := []hh.Option{hh.WithAlgorithm(algo), hh.WithCapacity(64)}
						if window != 0 {
							opts = append(opts, hh.WithWindow(window), hh.WithEpochs(4))
						}
						if shards != 0 {
							opts = append(opts, hh.WithShards(shards))
						}
						if arena {
							opts = append(opts, hh.WithArena())
						}
						coalesced := shards > 0 && algo != hh.AlgoLossyCounting
						if arena {
							runBatchUnitEquiv(t, opts, strKeys(str), stride, coalesced, 500)
						} else {
							runBatchUnitEquiv(t, opts, str, stride, coalesced, 500)
						}
					})
				}
			}
		}
	}
}

// runBatchUnitEquiv feeds the same stream through UpdateBatch and
// through per-item updates (in grouped order where the batch path
// coalesces) and requires identical N, Len, estimates, and bounds.
func runBatchUnitEquiv[K comparable](t *testing.T, opts []hh.Option, str []K, stride int, coalesced bool, universe int) {
	t.Helper()
	unit, batch := hh.New[K](opts...), hh.New[K](opts...)
	for lo := 0; lo < len(str); lo += stride {
		chunk := str[lo:min(lo+stride, len(str))]
		ref := chunk
		if coalesced {
			ref = coalesceBatch(chunk)
		}
		for _, x := range ref {
			unit.Update(x)
		}
		batch.UpdateBatch(chunk)
	}
	if u, b := unit.N(), batch.N(); u != b {
		t.Fatalf("N: unit %v, batch %v", u, b)
	}
	if u, b := unit.Len(), batch.Len(); u != b {
		t.Fatalf("Len: unit %v, batch %v", u, b)
	}
	seen := map[K]struct{}{}
	for _, x := range str {
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		if u, b := unit.Estimate(x), batch.Estimate(x); u != b {
			t.Fatalf("Estimate(%v): unit %v, batch %v", x, u, b)
		}
		ulo, uhi := unit.EstimateBounds(x)
		blo, bhi := batch.EstimateBounds(x)
		if ulo != blo || uhi != bhi {
			t.Fatalf("EstimateBounds(%v): unit [%v,%v], batch [%v,%v]", x, ulo, uhi, blo, bhi)
		}
	}
	if len(seen) > universe {
		t.Fatalf("stream touched %d items, universe %d", len(seen), universe)
	}
}

// strKeys maps a uint64 stream to string keys for the arena matrix.
func strKeys(str []uint64) []string {
	out := make([]string, len(str))
	for i, x := range str {
		out[i] = "k" + strconv.FormatUint(x, 10)
	}
	return out
}

// TestWindowWeightedArrivals covers the weighted backends under the
// ring: a count window over weighted arrivals windows the arrival
// count, and expired mass disappears.
func TestWindowWeightedArrivals(t *testing.T) {
	s := hh.New[uint64](hh.WithWeighted(), hh.WithCapacity(16),
		hh.WithWindow(100), hh.WithEpochs(4))
	for i := 0; i < 500; i++ {
		s.UpdateWeighted(1, 2.5)
	}
	if got := s.N(); got != 250 { // 100 covered arrivals × 2.5
		t.Errorf("N() = %v, want 250", got)
	}
	for i := 0; i < 125; i++ {
		s.UpdateWeighted(2, 0.5)
	}
	if got := s.Estimate(1); got != 0 {
		t.Errorf("expired weighted item still estimates %v", got)
	}
}

// TestTickWindowExpiry drives a tick window with an injected clock:
// epochs must expire on time advance alone — including on pure queries
// with no interleaved updates.
func TestTickWindowExpiry(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	s := hh.New[uint64](hh.WithCapacity(16),
		hh.WithTickWindow(8*time.Second, clock), hh.WithEpochs(4)) // 2s per epoch
	for i := 0; i < 100; i++ {
		s.Update(1)
	}
	if s.Estimate(1) != 100 {
		t.Fatalf("Estimate(1) = %v", s.Estimate(1))
	}
	// 5s later the item's epoch is still inside the 8s window.
	now = now.Add(5 * time.Second)
	if got := s.Estimate(1); got != 100 {
		t.Errorf("Estimate(1) = %v after 5s, want 100 (still in window)", got)
	}
	// Rotate partway: two fresh epochs of other traffic.
	for i := 0; i < 50; i++ {
		s.Update(2)
	}
	// 9s after the first burst, its epoch has aged out — with no update
	// in between, only queries.
	now = now.Add(4 * time.Second)
	if got := s.Estimate(1); got != 0 {
		t.Errorf("Estimate(1) = %v after aging out, want 0", got)
	}
	if got := s.Estimate(2); got != 50 {
		t.Errorf("Estimate(2) = %v, want 50 (still in window)", got)
	}
	ws, ok := s.Window()
	if !ok || ws.Tick != 8*time.Second {
		t.Errorf("Window() = %+v, %v", ws, ok)
	}
	// A gap longer than the whole window clears everything.
	now = now.Add(time.Minute)
	if got := s.N(); got != 0 {
		t.Errorf("N() = %v after a full-window gap, want 0", got)
	}
	s.Update(9)
	if got := s.Estimate(9); got != 1 {
		t.Errorf("unusable after full expiry: Estimate(9) = %v", got)
	}
}

// TestWindowSharded covers the shard-of-windows composition: thread
// safety under concurrent batches, expiry of stale items, and a drift
// workload where the windowed sharded summary must surface the current
// hot set.
func TestWindowSharded(t *testing.T) {
	const window = 8000
	s := hh.New[uint64](hh.WithCapacity(64), hh.WithShards(8), hh.WithWindow(window))
	var wg sync.WaitGroup
	str := stream.Zipf(300, 1.2, 40000, stream.OrderRandom, 9)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(part []uint64) {
			defer wg.Done()
			for lo := 0; lo < len(part); lo += 512 {
				s.UpdateBatch(part[lo:min(lo+512, len(part))])
			}
		}(str[g*10000 : (g+1)*10000])
	}
	wg.Wait()
	if n := s.N(); n <= 0 || n > window+8*1000 { // per-shard rings: ≤ window + p·epochLen slop
		t.Fatalf("N() = %v, want within (0, window+slop]", n)
	}
	if s.Estimate(0) == 0 {
		t.Error("hottest Zipf item invisible")
	}
	ws, ok := s.Window()
	if !ok || ws.Covered != s.N() {
		t.Errorf("Window() = %+v, %v", ws, ok)
	}
	// Drift: a brand-new hot set must dominate within one window.
	fresh := make([]uint64, window)
	for i := range fresh {
		fresh[i] = 1_000_000 + uint64(i%3)
	}
	s.UpdateBatch(fresh)
	top := s.Top(3)
	if len(top) != 3 {
		t.Fatalf("Top(3) returned %d", len(top))
	}
	for _, e := range top {
		if e.Item < 1_000_000 {
			t.Errorf("stale item %d still in the top after a full window of drift", e.Item)
		}
	}
}

// TestWindowGuarantee pins the advertised degraded constants: E epochs
// of (1, 1) structures must report (E, E) against the ring's E·m
// capacity, which reproduces the per-epoch bound exactly.
func TestWindowGuarantee(t *testing.T) {
	const m, epochs = 128, 4
	s := hh.New[uint64](hh.WithCapacity(m), hh.WithWindow(1000), hh.WithEpochs(epochs))
	g, ok := s.Guarantee()
	if !ok {
		t.Fatal("windowed SPACESAVING lost its guarantee")
	}
	if g.A != epochs || g.B != epochs {
		t.Errorf("Guarantee = (%v, %v), want (%v, %v)", g.A, g.B, epochs, epochs)
	}
	if got := s.Capacity(); got != m*epochs {
		t.Errorf("Capacity = %d, want %d", got, m*epochs)
	}
	const k, res = 10, 500.0
	want := hh.ErrorBound(hh.TailGuarantee{A: 1, B: 1}, m, k, res)
	if got := hh.ErrorBound(g, s.Capacity(), k, res); math.Abs(got-want) > 1e-9 {
		t.Errorf("window ErrorBound = %v, per-epoch bound = %v", got, want)
	}
}

// TestWindowMerge merges two windowed summaries: the result must carry
// the union of the covered masses and certain bounds.
func TestWindowMerge(t *testing.T) {
	mk := func(seed uint64) (hh.Summary[uint64], []uint64) {
		str := stream.Zipf(200, 1.1, 12000, stream.OrderRandom, seed)
		s := hh.New[uint64](hh.WithCapacity(64), hh.WithWindow(4096), hh.WithEpochs(4))
		s.UpdateBatch(str)
		return s, str
	}
	a, sa := mk(3)
	b, sb := mk(4)
	merged, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := merged.N(), a.N()+b.N(); math.Abs(got-want) > 1e-6 {
		t.Errorf("merged N = %v, want %v", got, want)
	}
	fa := exactWindowFreqs(sa, int(a.N()))
	fb := exactWindowFreqs(sb, int(b.N()))
	for _, e := range merged.Top(20) {
		lo, hi := merged.EstimateBounds(e.Item)
		f := fa[e.Item] + fb[e.Item]
		if lo > f+1e-6 || hi < f-1e-6 {
			t.Errorf("merged bounds [%v, %v] exclude combined windowed frequency %v of %d", lo, hi, f, e.Item)
		}
	}
	if _, ok := merged.Guarantee(); !ok {
		t.Error("merged windowed summaries lost the guarantee")
	}
}

// --- exponential decay ---

// TestDecayGeometric checks the decay arithmetic exactly: after n
// further arrivals, an item's estimate must have decayed by e^(−λn).
func TestDecayGeometric(t *testing.T) {
	const lambda = 0.01
	s := hh.New[uint64](hh.WithCapacity(16), hh.WithDecay(lambda))
	for i := 0; i < 100; i++ {
		s.UpdateWeighted(1, 1)
	}
	base := s.Estimate(1)
	const n = 500
	for i := 0; i < n; i++ {
		s.UpdateWeighted(2, 1)
	}
	want := base * math.Exp(-lambda*n)
	if got := s.Estimate(1); math.Abs(got-want) > 1e-6*want {
		t.Errorf("Estimate(1) = %v after %d arrivals, want %v", got, n, want)
	}
	// N() is the decayed total mass; with rate λ it converges to
	// 1/(1 − e^−λ) under unit arrivals, never grows unboundedly.
	if n := s.N(); n > 1/(1-math.Exp(-lambda))+1 {
		t.Errorf("decayed N() = %v did not saturate", n)
	}
}

// TestDecayRenormalization forces many renormalization cycles (λ·t far
// beyond the 256 exponent budget) and checks the estimates stay finite,
// accurate and properly ordered.
func TestDecayRenormalization(t *testing.T) {
	for _, algo := range []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent} {
		t.Run(algo.String(), func(t *testing.T) {
			const lambda = 0.5 // 20000 arrivals → λt = 10000 ≈ 39 renormalizations
			s := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(8), hh.WithDecay(lambda))
			for i := 0; i < 20000; i++ {
				s.UpdateWeighted(uint64(i%3), 1)
			}
			for i := uint64(0); i < 3; i++ {
				got := s.Estimate(i)
				if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
					t.Fatalf("Estimate(%d) = %v after renormalizations", i, got)
				}
			}
			// The most recent arrival (i = 19999, item 0 when i%3 == 1...)
			// dominates: with λ = 0.5 the last item carries weight 1 and
			// everything two steps back ≤ e^−1. Top(1) must be the item of
			// the final arrival.
			last := uint64((20000 - 1) % 3)
			top := s.Top(1)
			if len(top) != 1 || top[0].Item != last {
				t.Errorf("Top(1) = %v, want item %d (the most recent arrival)", top, last)
			}
			if n := s.N(); math.IsNaN(n) || math.IsInf(n, 0) || n <= 0 {
				t.Errorf("N() = %v", n)
			}
			s.Reset()
			if s.N() != 0 {
				t.Error("Reset did not clear decayed state")
			}
			s.UpdateWeighted(7, 2)
			if got := s.Estimate(7); got != 2 {
				t.Errorf("post-Reset Estimate = %v, want 2", got)
			}
		})
	}
}

// TestDecayHeavyHitters: with decay, "heavy" means heavy recently — an
// old giant must drop out of HeavyHitters once enough fresh mass
// arrives, without any hard window.
func TestDecayHeavyHitters(t *testing.T) {
	const lambda = 0.005
	s := hh.New[uint64](hh.WithCapacity(32), hh.WithDecay(lambda))
	for i := 0; i < 2000; i++ {
		s.UpdateWeighted(1, 1)
	}
	hits := s.HeavyHitters(0.5)
	if len(hits) == 0 || hits[0].Item != 1 {
		t.Fatalf("fresh giant not reported: %v", hits)
	}
	// 2000 arrivals of other items: item 1's mass decays by e^−10.
	for i := 0; i < 2000; i++ {
		s.UpdateWeighted(uint64(2+i%16), 1)
	}
	for _, h := range s.HeavyHitters(0.5) {
		if h.Item == 1 {
			t.Errorf("decayed giant still reported as a 50%% hitter with estimate %v", h.Count)
		}
	}
	if _, ok := s.Guarantee(); !ok {
		t.Error("decayed SPACESAVING lost its guarantee")
	}
	if _, ok := s.Window(); ok {
		t.Error("decayed summary reported an epoch-ring window state")
	}
}

// TestDecayShardedHorizon pins the decay × sharding composition: the
// per-shard rate is scaled by p, so the decay horizon is measured in
// global arrivals — a sharded summary's saturated mass must match the
// unsharded one's (≈ 1/(1−e^−λ)), not be p× larger.
func TestDecayShardedHorizon(t *testing.T) {
	const lambda = 0.01
	str := stream.Uniform(1000, 200_000, 51)
	flat := hh.New[uint64](hh.WithCapacity(64), hh.WithDecay(lambda))
	sharded := hh.New[uint64](hh.WithCapacity(64), hh.WithDecay(lambda), hh.WithShards(8))
	for _, x := range str {
		flat.Update(x)
		sharded.Update(x)
	}
	want := 1 / (1 - math.Exp(-lambda)) // ≈ 100.5 saturated arrivals
	if got := flat.N(); math.Abs(got-want) > 0.2*want {
		t.Errorf("unsharded decayed N = %v, want ≈ %v", got, want)
	}
	// Shard occupancy fluctuates, so allow generous slack — the bug this
	// guards against is an 8× discrepancy.
	if got := sharded.N(); math.Abs(got-want) > 0.5*want {
		t.Errorf("sharded decayed N = %v, want ≈ %v (p-scaled per-shard rate)", got, want)
	}
}

// TestDecayUnitAndBatch drives Update/UpdateBatch through the decay
// tier (each arrival is one decay tick).
func TestDecayUnitAndBatch(t *testing.T) {
	s := hh.New[uint64](hh.WithCapacity(16), hh.WithDecay(0.001))
	s.Update(1)
	s.UpdateBatch([]uint64{2, 2, 3})
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if e2, e3 := s.Estimate(2), s.Estimate(3); e2 <= e3 {
		t.Errorf("Estimate(2) = %v not above Estimate(3) = %v", e2, e3)
	}
}

// --- option validation ---

func TestWindowOptionValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("window+tick", func() {
		hh.New[uint64](hh.WithWindow(10), hh.WithTickWindow(time.Second, nil))
	})
	expectPanic("zero window", func() { hh.New[uint64](hh.WithWindow(0)) })
	expectPanic("zero tick", func() { hh.New[uint64](hh.WithTickWindow(0, nil)) })
	expectPanic("epochs without window", func() { hh.New[uint64](hh.WithEpochs(4)) })
	expectPanic("bad epochs", func() { hh.New[uint64](hh.WithWindow(10), hh.WithEpochs(0)) })
	expectPanic("windowed sketch", func() {
		hh.New[uint64](hh.WithAlgorithm(hh.AlgoCountMin), hh.WithWindow(10))
	})
	expectPanic("decay+window", func() { hh.New[uint64](hh.WithDecay(0.1), hh.WithWindow(10)) })
	expectPanic("negative decay", func() { hh.New[uint64](hh.WithDecay(-1)) })
	// "decay disabled" must be an error, not a silent switch to the
	// weighted backend with no decay.
	expectPanic("zero decay", func() { hh.New[uint64](hh.WithDecay(0)) })
	expectPanic("NaN decay", func() { hh.New[uint64](hh.WithDecay(math.NaN())) })
	expectPanic("decayed lossycounting", func() {
		hh.New[uint64](hh.WithAlgorithm(hh.AlgoLossyCounting), hh.WithDecay(0.1))
	})
	// Epoch count clamps to the window length rather than erroring.
	s := hh.New[uint64](hh.WithWindow(3), hh.WithEpochs(64))
	if ws, _ := s.Window(); ws.Epochs != 3 {
		t.Errorf("Epochs = %d, want clamped to 3", ws.Epochs)
	}
}

// --- windowed codec ---

// TestWindowCodecRoundTrip encodes a rotated epoch ring and checks the
// decoded summary answers identically — and keeps rotating.
func TestWindowCodecRoundTrip(t *testing.T) {
	for _, algo := range []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent} {
		t.Run(algo.String(), func(t *testing.T) {
			const window, epochs, epochLen = 4096, 4, 1024
			str := stream.Zipf(300, 1.1, 10000, stream.OrderRandom, 17)
			src := hh.New[uint64](hh.WithAlgorithm(algo), hh.WithCapacity(64),
				hh.WithWindow(window), hh.WithEpochs(epochs))
			src.UpdateBatch(str)

			var buf bytes.Buffer
			if err := src.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			dec, err := hh.Decode[uint64](&buf)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Algorithm() != algo {
				t.Errorf("Algorithm = %v", dec.Algorithm())
			}
			if dec.N() != src.N() {
				t.Errorf("N: decoded %v, source %v", dec.N(), src.N())
			}
			ws, ok := dec.Window()
			if !ok {
				t.Fatal("decoded summary lost its window state")
			}
			if ws.Epochs != epochs || ws.EpochLen != epochLen {
				t.Errorf("decoded window state %+v", ws)
			}
			for i := uint64(0); i < 300; i++ {
				if ds, ss := dec.Estimate(i), src.Estimate(i); ds != ss {
					t.Fatalf("Estimate(%d): decoded %v, source %v", i, ds, ss)
				}
				dl, dh := dec.EstimateBounds(i)
				sl, sh := src.EstimateBounds(i)
				if dl > sl+1e-9 || dh < sh-1e-9 {
					t.Fatalf("bounds(%d): decoded [%v, %v] tighter than source [%v, %v]", i, dl, dh, sl, sh)
				}
			}
			// The decoded ring keeps rotating: a full window of fresh
			// traffic must expel the transferred mass.
			for i := 0; i < window+epochLen; i++ {
				dec.Update(999_999)
			}
			if got := dec.Estimate(0); got != 0 {
				t.Errorf("transferred mass survived a full post-decode window: %v", got)
			}
			// And the advanced ring re-encodes.
			var buf2 bytes.Buffer
			if err := dec.Encode(&buf2); err != nil {
				t.Fatal(err)
			}
			if _, err := hh.Decode[uint64](&buf2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWindowCodecStringKeys exercises the windowed frame's other key
// kind and the tick mode.
func TestWindowCodecStringKeys(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	src := hh.New[string](hh.WithCapacity(8),
		hh.WithTickWindow(4*time.Second, clock), hh.WithEpochs(4))
	for i := 0; i < 100; i++ {
		src.Update("alpha")
		src.Update("beta")
	}
	now = now.Add(time.Second)
	src.Update("gamma")

	var buf bytes.Buffer
	if err := src.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := hh.Decode[string](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.Estimate("alpha"); got != 100 {
		t.Errorf("Estimate(alpha) = %v", got)
	}
	ws, ok := dec.Window()
	if !ok || ws.Tick != 4*time.Second {
		t.Errorf("decoded tick window state %+v, %v", ws, ok)
	}
	// Key-kind mismatch must fail loudly.
	buf.Reset()
	if err := src.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := hh.Decode[uint64](&buf); err == nil {
		t.Error("decoding string-keyed window as uint64 succeeded")
	}
}

// TestFlatWindowBoundsStayCertain is the regression test for the
// flattened windowed encode: an item whose mass is split across epochs
// — present in some, evicted from others — has an aggregate Count that
// omits the evicted epochs' contribution, so the flat frame's global
// slack must cover the epochs' eviction floors or decoded upper bounds
// exclude the true windowed frequency (review repro: live [10, 25],
// decoded [10, 13], truth 15).
func TestFlatWindowBoundsStayCertain(t *testing.T) {
	s := hh.New[uint64](hh.WithCapacity(4), hh.WithShards(2), hh.WithWindow(400), hh.WithEpochs(4))
	for i := 0; i < 5; i++ { // old epoch: item 0 gets 5...
		s.Update(0)
	}
	for i := uint64(1); i <= 40; i++ { // ...then is evicted by filler
		for j := 0; j < 3; j++ {
			s.Update(i)
		}
	}
	for i := 0; i < 10; i++ { // fresh epoch: 10 more of item 0
		s.Update(0)
	}
	lo, hi := s.EstimateBounds(0)
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := hh.Decode[uint64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	dlo, dhi := d.EstimateBounds(0)
	if dlo > lo+1e-9 || dhi < hi-1e-9 {
		t.Errorf("decoded bounds [%v, %v] tighter than the live certain bounds [%v, %v]", dlo, dhi, lo, hi)
	}
	if dlo > 15 || dhi < 15 {
		t.Errorf("decoded bounds [%v, %v] exclude the true windowed count 15", dlo, dhi)
	}
}

// TestWindowShardedAndDecayedEncodeFlat: configurations without a
// single epoch ring (sharded windows, decay) flatten to a snapshot that
// round-trips through the flat frame.
func TestWindowShardedAndDecayedEncodeFlat(t *testing.T) {
	sharded := hh.New[uint64](hh.WithCapacity(32), hh.WithShards(4), hh.WithWindow(1000))
	str := stream.Zipf(100, 1.2, 5000, stream.OrderRandom, 23)
	sharded.UpdateBatch(str)
	var buf bytes.Buffer
	if err := sharded.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := hh.Decode[uint64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.N() != sharded.N() {
		t.Errorf("N: decoded %v, source %v", dec.N(), sharded.N())
	}
	if _, ok := dec.Window(); ok {
		t.Error("flattened sharded window decoded with a ring state")
	}

	decayed := hh.New[uint64](hh.WithCapacity(32), hh.WithDecay(0.01))
	for _, x := range str {
		decayed.Update(x)
	}
	buf.Reset()
	if err := decayed.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec2, err := hh.Decode[uint64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := dec2.Estimate(0), decayed.Estimate(0); math.Abs(a-b) > 1e-9*(a+b+1) {
		t.Errorf("decayed snapshot Estimate(0): decoded %v, source %v", a, b)
	}
}
