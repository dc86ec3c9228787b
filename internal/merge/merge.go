// Package merge implements Section 6.2: combining summaries of separate
// streams into a summary of the union. Theorem 11 proves that feeding the
// k-sparse recoveries of ℓ summaries (each with a (A, B) tail guarantee)
// into a fresh counter algorithm yields a summary of the combined stream
// with a (3A, A+B) tail guarantee.
package merge

import (
	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/spacesaving"
)

// MergedGuarantee maps the per-summary tail constants (A, B) to the
// merged summary's constants (3A, A+B) of Theorem 11.
func MergedGuarantee(g core.TailGuarantee) core.TailGuarantee {
	return core.TailGuarantee{A: 3 * g.A, B: g.A + g.B}
}

// KSparse merges unit-weight summaries per the Theorem 11 construction:
// take the k-sparse recovery f′^(j) of each summary, generate the
// corresponding weighted stream, and feed it into a fresh SPACESAVINGR
// with m counters. Entries of each summary must be sorted by decreasing
// count.
func KSparse[K comparable](m, k int, summaries ...[]core.Entry[K]) *spacesaving.R[K] {
	alg := spacesaving.NewR[K](m)
	for _, entries := range summaries {
		for item, count := range recovery.KSparse(entries, k) {
			if count > 0 {
				alg.UpdateWeighted(item, count)
			}
		}
	}
	return alg
}

// KSparseWeighted merges real-valued summaries the same way.
func KSparseWeighted[K comparable](m, k int, summaries ...[]core.WeightedEntry[K]) *spacesaving.R[K] {
	alg := spacesaving.NewR[K](m)
	for _, entries := range summaries {
		for item, count := range recovery.KSparseWeighted(entries, k) {
			if count > 0 {
				alg.UpdateWeighted(item, count)
			}
		}
	}
	return alg
}

// MSparse merges summaries by refeeding *every* stored counter rather
// than only the top k. This is a deliberate strengthening of the
// Theorem 11 construction: with homogeneous shards, the union's (k+1)-th
// item is absent from every k-sparse recovery, so the k-sparse merge's
// error is at least f_{k+1} — which can marginally exceed the stated
// 3A·F1^res(k)/(m−(A+B)k) bound once m ≫ k (observed empirically by
// E9Merge in internal/experiments). Refeeding all m counters closes
// that gap: an item missing from a shard's summary has frequency at
// most that shard's own error bound, so the per-item error chain
// Δ ≤ Δ_f′ + Σ_j Δ_j goes through for every item.
func MSparse[K comparable](m int, summaries ...[]core.Entry[K]) *spacesaving.R[K] {
	alg := spacesaving.NewR[K](m)
	for _, entries := range summaries {
		for _, e := range entries {
			if e.Count > 0 {
				alg.UpdateWeighted(e.Item, float64(e.Count))
			}
		}
	}
	return alg
}

// MSparseWeighted is MSparse for real-valued summaries.
func MSparseWeighted[K comparable](m int, summaries ...[]core.WeightedEntry[K]) *spacesaving.R[K] {
	alg := spacesaving.NewR[K](m)
	for _, entries := range summaries {
		for _, e := range entries {
			if e.Count > 0 {
				alg.UpdateWeighted(e.Item, e.Count)
			}
		}
	}
	return alg
}

// Direct merges two SPACESAVING summaries without the k-sparse truncation
// (an ablation against the Theorem 11 construction): counters of shared
// items add; an item present in only one summary inherits the other
// summary's minimum counter as additional possible error. The top m of
// the union is kept. Entries must be sorted by decreasing count; minA and
// minB are the summaries' minimum counters (0 for summaries that never
// filled).
//
// The result overestimates like SPACESAVING itself: merged count ≥ true
// combined frequency, and count − err ≤ true combined frequency.
func Direct[K comparable](m int, a, b []core.Entry[K], minA, minB uint64) []core.Entry[K] {
	combined := make(map[K]core.Entry[K], len(a)+len(b))
	inB := make(map[K]bool, len(b))
	for _, e := range b {
		inB[e.Item] = true
	}
	for _, e := range a {
		if inB[e.Item] {
			combined[e.Item] = e
		} else {
			// Absent from b: its frequency in b's stream is at most minB.
			combined[e.Item] = core.Entry[K]{Item: e.Item, Count: e.Count + minB, Err: e.Err + minB}
		}
	}
	for _, e := range b {
		if prev, ok := combined[e.Item]; ok {
			combined[e.Item] = core.Entry[K]{
				Item:  e.Item,
				Count: prev.Count + e.Count,
				Err:   prev.Err + e.Err,
			}
		} else {
			// Absent from a: its frequency in a's stream is at most minA.
			combined[e.Item] = core.Entry[K]{Item: e.Item, Count: e.Count + minA, Err: e.Err + minA}
		}
	}
	out := make([]core.Entry[K], 0, len(combined))
	for _, e := range combined {
		out = append(out, e)
	}
	core.SortEntries(out)
	if len(out) > m {
		out = out[:m]
	}
	return out
}
