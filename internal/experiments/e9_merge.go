package experiments

import (
	"math"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/merge"
	"repro/internal/spacesaving"
	"repro/internal/stream"
)

// E9Merge verifies Theorem 11: summarising ℓ stream shards independently
// with SPACESAVING (tail constants (1,1)) and merging the k-sparse
// recoveries yields a summary of the union with tail constants (3, 2).
// The table sweeps ℓ and reports the merged summary's worst error against
// the (3,2) bound, next to a single-summary baseline over the whole
// stream and the direct counter-merge ablation.
func E9Merge(cfg Config) *harness.Table {
	const m, k = 120, 10
	s := stream.Zipf(cfg.Universe, cfg.Alpha, cfg.N, stream.OrderRandom, cfg.Seed)
	truth, freq := groundTruth(s, cfg.Universe)
	res := truth.Res1(k)
	singleBound := core.TailGuarantee{A: 1, B: 1}.Bound(m, k, res)
	mergedBound := merge.MergedGuarantee(core.TailGuarantee{A: 1, B: 1}).Bound(m, k, res)

	t := harness.NewTable(
		"E9 / Theorem 11: merging summaries of stream shards",
		"method", "shards", "max err", "bound", "ratio",
	)

	// Baseline: one summary over the entire stream.
	base := spacesaving.New[uint64](m)
	for _, x := range s {
		base.Update(x)
	}
	baseMet := harness.Evaluate(estimator(base), freq)
	t.Addf("single-summary", 1, baseMet.MaxErr, singleBound, baseMet.MaxErr/singleBound)

	for _, l := range []int{2, 4, 8, 16} {
		summaries := make([][]core.Entry[uint64], l)
		mins := make([]uint64, l)
		per := len(s) / l
		for i := 0; i < l; i++ {
			lo, hi := i*per, (i+1)*per
			if i == l-1 {
				hi = len(s)
			}
			alg := spacesaving.New[uint64](m)
			for _, x := range s[lo:hi] {
				alg.Update(x)
			}
			summaries[i] = alg.Entries()
			mins[i] = alg.MinCount()
		}
		merged := merge.KSparse(m, k, summaries...)
		worst := 0.0
		for i, f := range freq {
			if d := math.Abs(f - merged.EstimateWeighted(uint64(i))); d > worst {
				worst = d
			}
		}
		t.Addf("ksparse-merge", l, worst, mergedBound, worst/mergedBound)

		mergedAll := merge.MSparse(m, summaries...)
		worstAll := 0.0
		for i, f := range freq {
			if d := math.Abs(f - mergedAll.EstimateWeighted(uint64(i))); d > worstAll {
				worstAll = d
			}
		}
		t.Addf("msparse-merge", l, worstAll, mergedBound, worstAll/mergedBound)

		// Ablation: direct pairwise counter merge (fold left).
		acc := summaries[0]
		accMin := mins[0]
		for i := 1; i < l; i++ {
			acc = merge.Direct(m, acc, summaries[i], accMin, mins[i])
			// The folded summary's "min count" for subsequent merges is
			// its smallest kept counter.
			if len(acc) > 0 {
				accMin = acc[len(acc)-1].Count
			}
		}
		est := make(map[uint64]float64, len(acc))
		for _, e := range acc {
			est[e.Item] = float64(e.Count)
		}
		worstD := 0.0
		for i, f := range freq {
			if d := math.Abs(f - est[uint64(i)]); d > worstD {
				worstD = d
			}
		}
		t.Addf("direct-merge", l, worstD, mergedBound, worstD/mergedBound)
	}
	// Boundary finding: with homogeneous shards the k-sparse merge's
	// error is at least f_{k+1} (the union's (k+1)-th item is dropped
	// from every shard's top-k), which exceeds the stated bound once
	// m ≳ 2k + 3·F1res(k)/f_{k+1}. Demonstrate at a large budget.
	bigM := 2*k + int(3*res/sortedCopyDesc(freq)[k]) + 40
	summaries := make([][]core.Entry[uint64], 4)
	per := len(s) / 4
	for i := 0; i < 4; i++ {
		lo, hi := i*per, (i+1)*per
		if i == 3 {
			hi = len(s)
		}
		alg := spacesaving.New[uint64](bigM)
		for _, x := range s[lo:hi] {
			alg.Update(x)
		}
		summaries[i] = alg.Entries()
	}
	bigBound := merge.MergedGuarantee(core.TailGuarantee{A: 1, B: 1}).Bound(bigM, k, res)
	kBig := merge.KSparse(bigM, k, summaries...)
	mBig := merge.MSparse(bigM, summaries...)
	worstK, worstM := 0.0, 0.0
	for i, f := range freq {
		if d := math.Abs(f - kBig.EstimateWeighted(uint64(i))); d > worstK {
			worstK = d
		}
		if d := math.Abs(f - mBig.EstimateWeighted(uint64(i))); d > worstM {
			worstM = d
		}
	}
	t.Addf("ksparse-merge@m="+harness.F(float64(bigM)), 4, worstK, bigBound, worstK/bigBound)
	t.Addf("msparse-merge@m="+harness.F(float64(bigM)), 4, worstM, bigBound, worstM/bigBound)

	t.Note("m=%d, k=%d; ksparse-merge ratio must be <= 1 (Theorem 11)", m, k)
	t.Note("boundary rows (m=%d): the literal k-sparse construction loses f_{k+1} with homogeneous shards", bigM)
	t.Note("and can exceed the stated bound; refeeding all counters (msparse) stays within it — see merge.MSparse")
	return t
}
