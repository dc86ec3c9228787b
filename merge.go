package heavyhitters

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/merge"
	"repro/internal/spacesaving"
)

// This file exposes Section 6.2 on the public API: merging summaries of
// separate streams into a summary of their union.

// MergeSummaries combines any number of counter-backed summaries into a
// fresh m-counter summary of the union of their streams — the Section
// 6.2 construction, refeeding every stored counter (the robust MergeAll
// variant; see that function's note on why it is preferred over the
// literal k-sparse merge). Per-item error metadata and upper slack are
// carried through, so EstimateBounds on the result remain certain
// bounds; because any item may have gone unseen by an input that was
// full (a SPACESAVING input's unseen mass per item is at most its
// minimum counter Δ), every upper bound widens by the sum of the
// inputs' Δ-floors — the honest price of certainty after a merge. The
// point estimates and the Theorem 11 tail guarantee are unaffected: if
// every input carries a k-tail guarantee the result carries the (3A,
// A+B) constants of the elementwise max. Sketch-backed summaries are
// rejected. Inputs are absorbed in argument order, which decides
// individual counters (never the bounds' certainty); it is NewMerger
// plus one Merger.Add per input.
func MergeSummaries[K comparable](m int, summaries ...Summary[K]) (Summary[K], error) {
	if m < 1 || m > math.MaxInt32 {
		return nil, fmt.Errorf("heavyhitters: merge capacity must be in [1, 2^31-1], got %d", m)
	}
	mg := NewMerger[K](m)
	for _, s := range summaries {
		if err := mg.Add(s); err != nil {
			return nil, err
		}
	}
	return mg.result()
}

// Merger is MergeSummaries taken one input at a time: Add absorbs an
// input into the accumulated m-counter state, and Merge returns the
// merged summary of everything added so far plus any further inputs
// without consuming the state. A long-lived union — a server absorbing
// summaries pushed by remote agents — therefore pays for each pushed
// summary once, and a query-time rebuild pays only for the inputs that
// changed:
//
//	mg := heavyhitters.NewMerger[string](m)
//	mg.Add(pushed)                  // once per arrival
//	view, err := mg.Merge(live)     // per query; mg is unchanged
//
// Merge(more...) after Add(a), Add(b) equals MergeSummaries(m, a, b,
// more...) exactly: the same entries, slack, mass and Theorem 11
// guarantee. A Merger is not safe for concurrent use.
type Merger[K comparable] struct {
	dst *spacesaving.R[K]
	// slack is Σ slackOut + absentExtra over the inputs, mass Σ N; g is
	// the elementwise max of the inputs' (A, B), valid while hasG.
	slack, mass float64
	g           TailGuarantee
	hasG        bool
	inputs      int
}

// NewMerger returns an empty Merger whose results have m counters. It
// panics if m < 1 or m exceeds the int32 range.
func NewMerger[K comparable](m int) *Merger[K] {
	return &Merger[K]{dst: spacesaving.NewR[K](m), hasG: true}
}

// Add absorbs every stored counter of s, with its error metadata, and
// accumulates s's slack, mass and guarantee. A concurrent summary is
// read at one snapshot covering every write completed before the call.
// A rejected input — a sketch, or a Summary not built by this package —
// leaves the Merger unchanged.
func (mg *Merger[K]) Add(s Summary[K]) error {
	ws, ok := s.(*summary[K])
	if !ok {
		return fmt.Errorf("heavyhitters: input %d is not a summary built by this package", mg.inputs)
	}
	// Pin one consistent view per input: a concurrent input's entries,
	// slack and mass must all come from the same snapshot or racing
	// writers could break the carried bounds.
	be := pinnedFresh(ws.be)
	if !be.mergeable() {
		return fmt.Errorf("heavyhitters: input %d (%v) is sketch-backed and cannot be merged", mg.inputs, ws.algo)
	}
	dst, carryErr := mg.dst, be.overEst()
	be.each(func(e WeightedEntry[K]) bool {
		if carryErr {
			dst.Absorb(e.Item, e.Count, e.Err)
		} else {
			dst.Absorb(e.Item, e.Count, 0)
		}
		return true
	})
	// slackOut widens every bound (underestimated mass); absentExtra
	// widens them too, because an item stored in the merge may have been
	// evicted by this input, hiding up to its Δ.
	mg.slack += be.slackOut() + be.absentExtra()
	mg.mass += be.total()
	if ig, ok := be.guarantee(); !ok {
		mg.hasG = false
	} else {
		mg.g.A = math.Max(mg.g.A, ig.A)
		mg.g.B = math.Max(mg.g.B, ig.B)
	}
	mg.inputs++
	return nil
}

// Merge returns the merged summary of every input added so far followed
// by more, leaving the Merger unchanged: it clones the accumulated
// state (O(m)) and absorbs only more. It fails when no input was given
// at all, or when one of more is rejected.
func (mg *Merger[K]) Merge(more ...Summary[K]) (Summary[K], error) {
	c := *mg
	c.dst = mg.dst.Clone()
	for _, s := range more {
		if err := c.Add(s); err != nil {
			return nil, err
		}
	}
	return c.result()
}

// result wraps the accumulated state as a summary, handing over dst:
// the caller must not Add to mg afterwards.
func (mg *Merger[K]) result() (Summary[K], error) {
	if mg.inputs == 0 {
		return nil, fmt.Errorf("heavyhitters: nothing to merge")
	}
	be := &weightedBackend[K]{ssr: mg.dst, slack: mg.slack}
	be.carryExtraMass(mg.mass)
	if mg.hasG {
		be.g, be.hasG = MergedGuarantee(mg.g), true
	}
	return &summary[K]{algo: AlgoSpaceSaving, be: be}, nil
}

// Deprecated: prefer MergeSummaries (or Summary.Merge), which carries
// per-item error metadata into the result; Merge remains for code
// holding concrete Counter values and for the literal k-sparse
// construction.
//
// Merge combines summaries of ℓ separate streams into one summary of the
// union (Theorem 11): the k-sparse recovery of each input is fed, as
// weighted updates, into a fresh SPACESAVINGR with m counters. If every
// input provides a k-tail guarantee with constants (A, B), the result
// provides (3A, A+B) — so for SPACESAVING/FREQUENT inputs, picking m a
// small constant factor larger recovers the single-stream bound.
func Merge[K comparable](m, k int, summaries ...Counter[K]) *SpaceSavingR[K] {
	entries := make([][]core.Entry[K], len(summaries))
	for i, s := range summaries {
		entries[i] = s.Entries()
	}
	return merge.KSparse(m, k, entries...)
}

// MergeWeighted merges real-valued summaries the same way.
func MergeWeighted[K comparable](m, k int, summaries ...WeightedCounter[K]) *SpaceSavingR[K] {
	entries := make([][]core.WeightedEntry[K], len(summaries))
	for i, s := range summaries {
		entries[i] = s.WeightedEntries()
	}
	return merge.KSparseWeighted(m, k, entries...)
}

// Deprecated: prefer MergeSummaries (or Summary.Merge), the same
// construction on the unified surface with error metadata carried
// through.
//
// MergeAll merges summaries by refeeding every stored counter instead of
// only the top k. It is the recommended merge in practice: with
// homogeneous shards the union's (k+1)-th item can be dropped from every
// k-sparse recovery, making Merge's error at least f_{k+1}, which for
// m ≫ k marginally exceeds the Theorem 11 bound (a boundary finding of
// this reproduction; see E9Merge in internal/experiments). MergeAll
// keeps the bound for every item because an item a shard's summary
// dropped entirely has frequency at most that shard's own error bound.
func MergeAll[K comparable](m int, summaries ...Counter[K]) *SpaceSavingR[K] {
	entries := make([][]core.Entry[K], len(summaries))
	for i, s := range summaries {
		entries[i] = s.Entries()
	}
	return merge.MSparse(m, entries...)
}

// MergeAllWeighted is MergeAll for real-valued summaries.
func MergeAllWeighted[K comparable](m int, summaries ...WeightedCounter[K]) *SpaceSavingR[K] {
	entries := make([][]core.WeightedEntry[K], len(summaries))
	for i, s := range summaries {
		entries[i] = s.WeightedEntries()
	}
	return merge.MSparseWeighted(m, entries...)
}

// MergedGuarantee maps per-summary tail constants (A, B) to the merged
// summary's (3A, A+B) of Theorem 11.
func MergedGuarantee(g TailGuarantee) TailGuarantee {
	return merge.MergedGuarantee(g)
}
