package heavyhitters_test

// Tests for the WithConcurrent tier: single-threaded equivalence with
// the unwrapped compositions, write/Reset visibility through the
// generation-tracked snapshot, certain bounds, consistent pinned
// compound queries (HeavyHitters, Merge, Encode), and the -race
// regression suite for mixed reader/writer traffic — including the
// window tick rotation driven from a query goroutine, which before
// this tier had never run under -race with concurrent writers.

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	hh "repro"
	"repro/internal/exact"
	"repro/internal/stream"
)

// concurrentVariants pairs each backend composition with its
// WithConcurrent-wrapped twin.
func concurrentVariants() map[string][]hh.Option {
	return map[string][]hh.Option{
		"unsharded":      {hh.WithCapacity(128)},
		"frequent":       {hh.WithAlgorithm(hh.AlgoFrequent), hh.WithCapacity(128)},
		"lossycounting":  {hh.WithAlgorithm(hh.AlgoLossyCounting), hh.WithCapacity(128)},
		"weighted":       {hh.WithWeighted(), hh.WithCapacity(128)},
		"sharded":        {hh.WithCapacity(128), hh.WithShards(4)},
		"window":         {hh.WithCapacity(128), hh.WithWindow(8192), hh.WithEpochs(4)},
		"sharded-window": {hh.WithCapacity(128), hh.WithWindow(8192), hh.WithEpochs(4), hh.WithShards(4)},
		"decay":          {hh.WithCapacity(128), hh.WithDecay(0.0001)},
	}
}

// TestConcurrentTierMatchesPlain drives the same stream through each
// composition with and without the concurrency tier, single-threaded:
// estimates, totals and rankings must be identical (the snapshot is a
// faithful mirror), and the concurrent bounds must contain the plain
// ones (identical for unsharded compositions; a sharded snapshot's
// upper bounds may widen by the other shards' slack, never tighten).
func TestConcurrentTierMatchesPlain(t *testing.T) {
	str := stream.Zipf(2000, 1.1, 60000, stream.OrderRandom, 7)
	for name, opts := range concurrentVariants() {
		t.Run(name, func(t *testing.T) {
			plain := hh.New[uint64](opts...)
			conc := hh.New[uint64](append([]hh.Option{hh.WithConcurrent()}, opts...)...)
			for i, x := range str {
				if i%3 == 0 {
					plain.Update(x)
					conc.Update(x)
				} else if i%3 == 1 {
					plain.UpdateBatch(str[i : i+1])
					conc.UpdateBatch(str[i : i+1])
				} else {
					plain.UpdateWeighted(x, 2)
					conc.UpdateWeighted(x, 2)
				}
			}
			if pn, cn := plain.N(), conc.N(); pn != cn {
				t.Fatalf("N: plain %v, concurrent %v", pn, cn)
			}
			if pl, cl := plain.Len(), conc.Len(); pl != cl {
				t.Fatalf("Len: plain %d, concurrent %d", pl, cl)
			}
			pt, ct := plain.Top(20), conc.Top(20)
			if len(pt) != len(ct) {
				t.Fatalf("Top lengths differ: %d vs %d", len(pt), len(ct))
			}
			for i := range pt {
				// Counts must agree rank by rank; at a tied boundary the two
				// paths may break the tie differently (the snapshot truncates
				// a full sort, the live path a partial top-k), so items are
				// checked through their estimates instead.
				if pt[i].Count != ct[i].Count {
					t.Fatalf("Top[%d]: plain %+v, concurrent %+v", i, pt[i], ct[i])
				}
				if pe, ce := plain.Estimate(ct[i].Item), conc.Estimate(ct[i].Item); pe != ce {
					t.Fatalf("Top[%d] item %d: plain estimate %v, concurrent %v", i, ct[i].Item, pe, ce)
				}
			}
			// Bounds may differ by float rounding only where the snapshot
			// folds scale factors in a different association order (decay).
			const ulp = 1e-9
			for i := uint64(0); i < 2000; i += 17 {
				if pe, ce := plain.Estimate(i), conc.Estimate(i); pe != ce {
					t.Fatalf("Estimate(%d): plain %v, concurrent %v", i, pe, ce)
				}
				plo, phi := plain.EstimateBounds(i)
				clo, chi := conc.EstimateBounds(i)
				if clo > plo+ulp*(1+plo) || chi < phi-ulp*(1+phi) {
					t.Fatalf("bounds of %d narrowed: plain [%v, %v], concurrent [%v, %v]", i, plo, phi, clo, chi)
				}
			}
			pg, pok := plain.Guarantee()
			cg, cok := conc.Guarantee()
			if pok != cok || pg != cg {
				t.Fatalf("Guarantee: plain %v/%v, concurrent %v/%v", pg, pok, cg, cok)
			}
			pw, pwok := plain.Window()
			cw, cwok := conc.Window()
			if pwok != cwok || pw != cw {
				t.Fatalf("Window: plain %+v/%v, concurrent %+v/%v", pw, pwok, cw, cwok)
			}
		})
	}
}

// TestConcurrentBoundsCertain checks the snapshot-derived intervals
// against exact frequencies across the whole universe, for stored and
// absent items alike.
func TestConcurrentBoundsCertain(t *testing.T) {
	const universe = 3000
	str := stream.Zipf(universe, 1.1, 80000, stream.OrderRandom, 11)
	truth := exact.FromStream(str)
	for name, opts := range concurrentVariants() {
		if name == "window" || name == "sharded-window" || name == "decay" {
			continue // bounds there are against the covered suffix, not the whole stream
		}
		t.Run(name, func(t *testing.T) {
			s := hh.New[uint64](append([]hh.Option{hh.WithConcurrent()}, opts...)...)
			s.UpdateBatch(str)
			for i := uint64(0); i < universe; i++ {
				lo, hi := s.EstimateBounds(i)
				if f := truth.Freq(i); lo > f || hi < f {
					t.Fatalf("item %d: [%v, %v] excludes true %v", i, lo, hi, f)
				}
			}
		})
	}
}

// TestConcurrentTierFreshness pins the generation contract: every
// completed write is visible to the next query, through every write
// entry point.
func TestConcurrentTierFreshness(t *testing.T) {
	s := hh.New[uint64](hh.WithConcurrent(), hh.WithCapacity(16), hh.WithShards(2))
	s.Update(1)
	if got := s.Estimate(1); got != 1 {
		t.Fatalf("after Update: Estimate = %v, want 1", got)
	}
	s.UpdateBatch([]uint64{1, 2})
	if got := s.Estimate(1); got != 2 {
		t.Fatalf("after UpdateBatch: Estimate = %v, want 2", got)
	}
	s.UpdateWeighted(1, 3)
	if got := s.Estimate(1); got != 5 {
		t.Fatalf("after UpdateWeighted: Estimate = %v, want 5", got)
	}
	if got := s.N(); got != 6 {
		t.Fatalf("N = %v, want 6", got)
	}
}

// TestConcurrentTierReset: the snapshot generation must invalidate on
// Reset, so a post-Reset query never reports pre-Reset entries — even
// though a query immediately before the Reset warmed the snapshot.
func TestConcurrentTierReset(t *testing.T) {
	for name, opts := range concurrentVariants() {
		t.Run(name, func(t *testing.T) {
			s := hh.New[uint64](append([]hh.Option{hh.WithConcurrent()}, opts...)...)
			s.UpdateBatch(stream.Zipf(100, 1.2, 5000, stream.OrderRandom, 3))
			if s.N() == 0 || len(s.Top(5)) == 0 {
				t.Fatal("pre-Reset state empty")
			}
			s.Reset()
			if got := s.N(); got != 0 {
				t.Fatalf("post-Reset N = %v, want 0", got)
			}
			if top := s.Top(5); len(top) != 0 {
				t.Fatalf("post-Reset Top = %v, want empty", top)
			}
			if got := s.Estimate(0); got != 0 {
				t.Fatalf("post-Reset Estimate = %v, want 0", got)
			}
			if lo, hi := s.EstimateBounds(0); lo != 0 || hi != 0 {
				t.Fatalf("post-Reset bounds = [%v, %v], want [0, 0]", lo, hi)
			}
			s.Update(42)
			if got := s.Estimate(42); got != 1 {
				t.Fatalf("unusable after Reset: Estimate = %v", got)
			}
		})
	}
}

// TestConcurrentResetNeverServesStale hammers the reset-era contract
// under -race: while phase-2 writers ingest keys >= 1000 after a Reset,
// readers must never observe a phase-1 key (< 1000) — not even from the
// bounded-stale snapshot fallback.
func TestConcurrentResetNeverServesStale(t *testing.T) {
	s := hh.New[uint64](hh.WithConcurrent(), hh.WithCapacity(64), hh.WithShards(4))
	for round := 0; round < 20; round++ {
		// Phase 1: pre-Reset keys, snapshot deliberately warmed.
		for i := uint64(0); i < 500; i++ {
			s.Update(i % 100)
		}
		s.TopAppend(nil, 10)
		s.Reset()

		// Phase 2: concurrent writers on disjoint keys plus readers that
		// must never see phase 1 again.
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				for i := uint64(0); i < 2000; i++ {
					s.Update(1000 + (seed*2000+i)%100)
				}
			}(uint64(g))
		}
		var rwg sync.WaitGroup
		stop := make(chan struct{})
		var violation atomic.Bool
		for r := 0; r < 2; r++ {
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				var buf []hh.WeightedEntry[uint64]
				for {
					select {
					case <-stop:
						return
					default:
					}
					buf = s.TopAppend(buf[:0], 20)
					for _, e := range buf {
						if e.Item < 1000 {
							violation.Store(true)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		rwg.Wait()
		if violation.Load() {
			t.Fatal("reader observed a pre-Reset entry after Reset returned")
		}
		s.Reset()
	}
}

// atomicClock is a -race-safe injectable clock for tick windows.
type atomicClock struct{ nanos atomic.Int64 }

func (c *atomicClock) now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *atomicClock) advance(d time.Duration) { c.nanos.Add(int64(d)) }
func newAtomicClock(start int64) *atomicClock {
	c := &atomicClock{}
	c.nanos.Store(start)
	return c
}

// TestConcurrentTickRotationRace is the PR 4 satellite regression: the
// PR 3 "rotation on queries" path — a tick window expiring epochs from
// a query — running under -race while writer goroutines ingest through
// the concurrency tier, unsharded and sharded.
func TestConcurrentTickRotationRace(t *testing.T) {
	for _, shards := range []int{0, 4} {
		name := "unsharded"
		opts := []hh.Option{hh.WithConcurrent(), hh.WithCapacity(64)}
		if shards > 0 {
			name = "sharded"
			opts = append(opts, hh.WithShards(shards))
		}
		t.Run(name, func(t *testing.T) {
			clock := newAtomicClock(0)
			s := hh.New[uint64](append(opts, hh.WithTickWindow(80*time.Millisecond, clock.now), hh.WithEpochs(4))...)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					str := stream.Zipf(300, 1.1, 4000, stream.OrderRandom, seed+1)
					for _, x := range str {
						select {
						case <-stop:
							return
						default:
						}
						s.Update(x)
					}
				}(uint64(g))
			}
			// The clock advances one epoch granularity at a time, so
			// queries keep triggering rotations while writers run.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					clock.advance(20 * time.Millisecond)
					time.Sleep(200 * time.Microsecond)
				}
			}()
			// Query goroutines: every read path, including the
			// rotation-triggering Window() and N().
			var rwg sync.WaitGroup
			for r := 0; r < 2; r++ {
				rwg.Add(1)
				go func(seed uint64) {
					defer rwg.Done()
					var buf []hh.WeightedEntry[uint64]
					for i := 0; i < 400; i++ {
						buf = s.TopAppend(buf[:0], 10)
						s.Estimate(seed)
						s.EstimateBounds(seed + 1)
						s.N()
						if ws, ok := s.Window(); ok && ws.Epochs != 4 {
							t.Errorf("Window.Epochs = %d, want 4", ws.Epochs)
							return
						}
						s.HeavyHitters(0.05)
						for range s.All() {
							break
						}
					}
				}(uint64(r))
			}
			rwg.Wait()
			close(stop)
			wg.Wait()
		})
	}
}

// TestConcurrentCountWindowRace: the count-window ring rotating on
// writes while readers poll, sharded, under -race.
func TestConcurrentCountWindowRace(t *testing.T) {
	s := hh.New[uint64](hh.WithConcurrent(), hh.WithCapacity(64),
		hh.WithWindow(4096), hh.WithEpochs(4), hh.WithShards(4))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			str := stream.Zipf(300, 1.1, 8000, stream.OrderRandom, seed+9)
			for lo := 0; lo < len(str); lo += 256 {
				s.UpdateBatch(str[lo:min(lo+256, len(str))])
			}
		}(uint64(g))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf []hh.WeightedEntry[uint64]
		for i := 0; i < 500; i++ {
			buf = s.TopAppend(buf[:0], 10)
			s.Window()
			s.N()
		}
	}()
	wg.Wait()
	<-done
	if ws, ok := s.Window(); !ok || ws.Covered == 0 {
		t.Fatalf("Window after ingest = %+v, %v", ws, ok)
	}
}

// TestConcurrentTickWindowIdleExpiry: with no writes at all, the
// generation never moves — the snapshot must still expire on the tick
// clock so idle epochs age out of reads (served through a rebuild that
// rotates the ring).
func TestConcurrentTickWindowIdleExpiry(t *testing.T) {
	clock := newAtomicClock(0)
	s := hh.New[uint64](hh.WithConcurrent(), hh.WithCapacity(64),
		hh.WithTickWindow(400*time.Millisecond, clock.now), hh.WithEpochs(4))
	for i := uint64(0); i < 1000; i++ {
		s.Update(i % 10)
	}
	if got := s.N(); got != 1000 {
		t.Fatalf("N = %v, want 1000", got)
	}
	// One epoch past: still covered (the ring holds 4 epochs).
	clock.advance(100 * time.Millisecond)
	if got := s.N(); got != 1000 {
		t.Fatalf("N after one epoch = %v, want 1000", got)
	}
	// The whole ring ages out with zero intervening writes.
	clock.advance(time.Second)
	if got := s.N(); got != 0 {
		t.Fatalf("N after ring aged out = %v, want 0", got)
	}
	if top := s.Top(5); len(top) != 0 {
		t.Fatalf("Top after ring aged out = %v, want empty", top)
	}
}

// TestConcurrentEncodeConsistent: Encode on a concurrent summary under
// active writers must always produce a decodable frame whose mass is
// consistent with its entries (one pinned snapshot, not a torn mix of
// generations); after quiescing, the final encode is exact.
func TestConcurrentEncodeConsistent(t *testing.T) {
	const writers, perW = 4, 30000
	s := hh.New[uint64](hh.WithConcurrent(), hh.WithCapacity(128), hh.WithShards(4))
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			str := stream.Zipf(500, 1.1, perW, stream.OrderRandom, seed+21)
			for lo := 0; lo < len(str); lo += 512 {
				s.UpdateBatch(str[lo:min(lo+512, len(str))])
			}
		}(uint64(g))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			var buf bytes.Buffer
			if err := s.Encode(&buf); err != nil {
				t.Errorf("mid-ingest Encode: %v", err)
				return
			}
			dec, err := hh.Decode[uint64](&buf)
			if err != nil {
				t.Errorf("mid-ingest Decode: %v", err)
				return
			}
			if n := dec.N(); n < 0 || n > writers*perW {
				t.Errorf("decoded N = %v outside [0, %d]", n, writers*perW)
				return
			}
			// The decoded counter mass can never exceed the decoded N —
			// that is what a single pinned snapshot guarantees.
			var stored float64
			for e := range dec.All() {
				stored += e.Count
			}
			if stored > dec.N()+1e-6 {
				t.Errorf("decoded stored mass %v exceeds N %v (torn snapshot)", stored, dec.N())
				return
			}
		}
	}()
	wg.Wait()
	<-done

	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := hh.Decode[uint64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dec.N(), float64(writers*perW); got != want {
		t.Fatalf("quiesced decoded N = %v, want %v", got, want)
	}
}

// TestConcurrentWindowEncodeRoundTrip: the unsharded concurrent window
// keeps the resumable HHWIN2 ring frame (written under the write lock).
func TestConcurrentWindowEncodeRoundTrip(t *testing.T) {
	s := hh.New[uint64](hh.WithConcurrent(), hh.WithCapacity(64),
		hh.WithWindow(4096), hh.WithEpochs(4))
	s.UpdateBatch(stream.Zipf(300, 1.1, 10000, stream.OrderRandom, 5))
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := hh.Decode[uint64](&buf)
	if err != nil {
		t.Fatal(err)
	}
	dw, ok := dec.Window()
	if !ok {
		t.Fatal("decoded summary lost its window")
	}
	sw, _ := s.Window()
	if dw.Epochs != sw.Epochs || dw.Covered != sw.Covered {
		t.Fatalf("decoded window %+v, want %+v", dw, sw)
	}
	if dec.N() != s.N() {
		t.Fatalf("decoded N = %v, want %v", dec.N(), s.N())
	}
}

// TestConcurrentMergeUnderWrites: MergeSummaries pins each concurrent
// input to one snapshot; merging while writers race must yield a valid
// summary whose mass is a consistent intermediate value.
func TestConcurrentMergeUnderWrites(t *testing.T) {
	a := hh.New[uint64](hh.WithConcurrent(), hh.WithCapacity(64), hh.WithShards(2))
	b := hh.New[uint64](hh.WithCapacity(64))
	b.UpdateBatch(stream.Zipf(200, 1.1, 5000, stream.OrderRandom, 2))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		str := stream.Zipf(200, 1.1, 20000, stream.OrderRandom, 3)
		for _, x := range str {
			a.Update(x)
		}
	}()
	for i := 0; i < 10; i++ {
		m, err := hh.MergeSummaries(64, a, b)
		if err != nil {
			t.Fatalf("merge %d: %v", i, err)
		}
		if n := m.N(); n < 5000 || n > 25000 {
			t.Fatalf("merged N = %v outside [5000, 25000]", n)
		}
	}
	wg.Wait()
	m, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.N(), float64(25000); got != want {
		t.Fatalf("quiesced merged N = %v, want %v", got, want)
	}
}

// TestConcurrentMixedReadersWriters is the general -race hammer across
// compositions: sustained multi-goroutine ingest with readers running
// every query concurrently.
func TestConcurrentMixedReadersWriters(t *testing.T) {
	for name, opts := range concurrentVariants() {
		t.Run(name, func(t *testing.T) {
			s := hh.New[uint64](append([]hh.Option{hh.WithConcurrent()}, opts...)...)
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					str := stream.Zipf(300, 1.1, 6000, stream.OrderRandom, seed+31)
					for lo := 0; lo < len(str); lo += 200 {
						s.UpdateBatch(str[lo:min(lo+200, len(str))])
					}
				}(uint64(g))
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				var buf []hh.WeightedEntry[uint64]
				for i := 0; i < 300; i++ {
					buf = s.TopAppend(buf[:0], 10)
					s.Estimate(uint64(i % 300))
					s.EstimateBounds(uint64(i % 300))
					s.HeavyHitters(0.05)
					s.N()
					s.Len()
					for range s.All() {
						break
					}
				}
			}()
			wg.Wait()
			<-done
			if s.N() == 0 {
				t.Fatal("no mass after concurrent ingest")
			}
		})
	}
}

// TestConcurrentNExactAfterQuiesce: N() must be exact the moment
// writers finish, even when a reader's snapshot rebuild started
// mid-ingest is still in flight — N waits for the single-flight
// rebuild instead of taking the bounded-stale fallback (the regression
// originally surfaced as a flaky legacy TestConcurrentParallelUpdates).
func TestConcurrentNExactAfterQuiesce(t *testing.T) {
	for round := 0; round < 30; round++ {
		s := hh.New[uint64](hh.WithConcurrent(), hh.WithCapacity(64), hh.WithShards(4))
		const writers, perW = 4, 5000
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				for i := uint64(0); i < perW; i++ {
					s.Update(seed*perW + i%200)
				}
			}(uint64(g))
		}
		// A reader keeps triggering rebuilds until the writers are done.
		stop := make(chan struct{})
		var rwg sync.WaitGroup
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			var buf []hh.WeightedEntry[uint64]
			for {
				select {
				case <-stop:
					return
				default:
					buf = s.TopAppend(buf[:0], 5)
				}
			}
		}()
		wg.Wait()
		// The reader is deliberately NOT stopped first: its in-flight
		// rebuild must not make this N stale.
		if got := s.N(); got != writers*perW {
			close(stop)
			rwg.Wait()
			t.Fatalf("round %d: N after quiesce = %v, want %d", round, got, writers*perW)
		}
		close(stop)
		rwg.Wait()
	}
}

// TestConcurrentRejectsSketches: snapshots cannot reproduce sketch
// estimates for never-tracked items, so the combination is a
// construction error.
func TestConcurrentRejectsSketches(t *testing.T) {
	for _, a := range []hh.Algo{hh.AlgoCountMin, hh.AlgoCountSketch} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithConcurrent + %v did not panic", a)
				}
			}()
			hh.New[uint64](hh.WithConcurrent(), hh.WithAlgorithm(a))
		}()
	}
}

// concurrentSharded is the thread-safe sharded stack every concurrent
// ingest path runs: p locked shards of m counters each under the
// concurrency tier.
func concurrentSharded[K comparable](p, m int) hh.Summary[K] {
	return hh.New[K](hh.WithConcurrent(), hh.WithShards(p), hh.WithCapacity(m))
}

func TestConcurrentSequentialCorrectness(t *testing.T) {
	c := concurrentSharded[uint64](4, 32)
	s := stream.Zipf(500, 1.2, 50000, stream.OrderRandom, 3)
	truth := exact.FromStream(s)
	for _, x := range s {
		c.Update(x)
	}
	if c.N() != float64(len(s)) {
		t.Errorf("N = %v, want %d", c.N(), len(s))
	}
	// Items are partitioned across shards, so per-item estimates keep a
	// shard-level overestimate guarantee: estimate >= true for stored.
	for i := uint64(0); i < 10; i++ {
		if c.Estimate(i) < truth.Freq(i) {
			t.Errorf("item %d: estimate %v under true %v", i, c.Estimate(i), truth.Freq(i))
		}
	}
}

// TestConcurrentSnapshotGuarantee checks Theorem 11 on the compacted
// view of a sharded summary: each shard is (1, 1)-guaranteed on its
// sub-stream, so merging the shards into m counters must report (3, 2)
// and keep every error within the (3, 2) k-tail bound, with every true
// frequency inside the merged certain bounds.
func TestConcurrentSnapshotGuarantee(t *testing.T) {
	const n, total, m, k = 400, 80000, 100, 10
	c := concurrentSharded[uint64](8, m)
	s := stream.Zipf(n, 1.1, total, stream.OrderRandom, 5)
	truth := exact.FromStream(s)
	for _, x := range s {
		c.Update(x)
	}
	live := hh.TailGuarantee{A: 1, B: 1}
	if g, ok := c.Guarantee(); !ok || g != live {
		t.Fatalf("live Guarantee = %v, %v; want %v", g, ok, live)
	}
	snap, err := hh.MergeSummaries(m, c)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := snap.Guarantee()
	if want := hh.MergedGuarantee(live); !ok || g != want {
		t.Fatalf("merged Guarantee = %v, %v; want %v", g, ok, want)
	}
	bound := g.Bound(m, k, truth.Res1(k))
	worst := 0.0
	for i := uint64(0); i < n; i++ {
		f := truth.Freq(i)
		worst = max(worst, math.Abs(f-snap.Estimate(i)))
		if lo, hi := snap.EstimateBounds(i); lo > f || hi < f {
			t.Errorf("item %d: merged bounds [%v, %v] exclude true %v", i, lo, hi, f)
		}
	}
	if worst > bound {
		t.Errorf("worst merged error %v exceeds the (3, 2) bound %v", worst, bound)
	}
	t.Logf("merged guarantee %v: worst error %v, bound %v", g, worst, bound)
}

func TestConcurrentParallelUpdates(t *testing.T) {
	// Hammer the structure from many goroutines; run with -race in CI.
	const goroutines, perG = 8, 20000
	c := concurrentSharded[uint64](4, 64)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			s := stream.Zipf(200, 1.1, perG, stream.OrderRandom, seed)
			for _, x := range s {
				c.Update(x)
			}
		}(uint64(g))
	}
	// Concurrent readers: point queries and the compacted merge.
	done, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-done:
				return
			default:
				c.Estimate(0)
				if _, err := hh.MergeSummaries(64, c); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(done)
	<-readerDone
	if c.N() != goroutines*perG {
		t.Errorf("N = %v, want %d", c.N(), goroutines*perG)
	}
	// Item 0 is the heavy hitter of every goroutine's stream; it must
	// lead the final ranking.
	if top := c.Top(1); len(top) != 1 || top[0].Item != 0 {
		t.Errorf("Top(1) = %v, want item 0", top)
	}
}

func TestConcurrentStringKeys(t *testing.T) {
	c := concurrentSharded[string](4, 16)
	for i := 0; i < 100; i++ {
		c.Update("hot")
		if i%10 == 0 {
			c.Update("warm")
		}
	}
	if got := c.Estimate("hot"); got < 100 {
		t.Errorf("Estimate(hot) = %v, want >= 100", got)
	}
	if top := c.Top(1); len(top) != 1 || top[0].Item != "hot" {
		t.Errorf("Top = %v", top)
	}
}

func TestConcurrentReset(t *testing.T) {
	c := concurrentSharded[uint64](2, 8)
	c.Update(1)
	c.Reset()
	if c.N() != 0 || c.Estimate(1) != 0 {
		t.Error("Reset did not clear state")
	}
	c.Update(2)
	if c.Estimate(2) != 1 {
		t.Error("unusable after Reset")
	}
}

func TestConcurrentConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"p<0": func() { concurrentSharded[uint64](-1, 8) },
		"m=0": func() { concurrentSharded[uint64](2, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConcurrentAccessors(t *testing.T) {
	c := concurrentSharded[uint64](3, 16)
	if c.Capacity() != 16 {
		t.Errorf("Capacity = %d, want the per-shard 16", c.Capacity())
	}
	if c.Algorithm() != hh.AlgoSpaceSaving {
		t.Errorf("Algorithm = %v", c.Algorithm())
	}
	if s, ok := c.(fmt.Stringer); !ok || s.String() == "" {
		t.Error("no String() description")
	}
}
