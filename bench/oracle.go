package main

import (
	"context"
	"fmt"
	"math"

	"repro/client"
	"repro/internal/rng"
)

// oracle holds the exact count of every key id the daemon acknowledged.
type oracle struct {
	counts []uint64
	mass   uint64
}

func newOracle(universe int) *oracle { return &oracle{counts: make([]uint64, universe)} }

// addIDs counts every id times times.
func (o *oracle) addIDs(ids []uint32, times uint64) {
	for _, id := range ids {
		o.counts[id] += times
	}
	o.mass += uint64(len(ids)) * times
}

// addTrace counts the first positions items of the trace cycled from
// position 0: whole passes first, then the partial pass.
func (o *oracle) addTrace(trace []uint32, positions int) {
	if passes := positions / len(trace); passes > 0 {
		o.addIDs(trace, uint64(passes))
	}
	o.addIDs(trace[:positions%len(trace)], 1)
}

// top returns the k ids with the largest counts, ties broken by the
// smaller id.
func (o *oracle) top(k int) []uint32 {
	top := make([]uint32, 0, k+1)
	for id, c := range o.counts {
		if c == 0 || (len(top) == k && c <= o.counts[top[k-1]]) {
			continue
		}
		i := len(top)
		top = append(top, 0)
		for i > 0 && o.counts[top[i-1]] < c {
			top[i] = top[i-1]
			i--
		}
		top[i] = uint32(id)
		top = top[:min(len(top), k)]
	}
	return top
}

// res1 is F1res(k): the mass outside the k most frequent keys.
func (o *oracle) res1(k int) float64 {
	rest := o.mass
	for _, id := range o.top(k) {
		rest -= o.counts[id]
	}
	return float64(rest)
}

// checks is the outcome of the exact-oracle gate.
type checks struct {
	ops, failed, violations int
	// recall is the share of the exact top-100 in the served top-100;
	// NaN where every key ties.
	recall float64
	notes  []string
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	c.note(format, args...)
}

func (c *checks) violate(format string, args ...any) {
	c.violations++
	c.note(format, args...)
}

func (c *checks) note(format string, args ...any) {
	if len(c.notes) < 8 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// checkAnswers compares the served answers with the oracle once ingest
// has stopped. Checked keys are the exact top-100 plus 100 seeded random
// keys: each must have its exact count inside the served [lo, hi]. The
// exact top-10 must also be within the k-tail bound A·F1res(10)/(m−B·10)
// of their exact counts, with (A, B) and m taken from the /encode blob.
func checkAnswers(ctx context.Context, c *client.Client, w *workload, in *inputs, o *oracle, seed uint64) checks {
	var r checks
	const checked, tailK = 100, 10
	r.ops++
	served, err := c.Top(ctx, checked)
	if err != nil {
		r.fail("top: %v", err)
		return r
	}
	if served.N != float64(o.mass) {
		r.fail("served mass %.0f, acknowledged mass %d", served.N, o.mass)
	}
	exactTop := o.top(checked)
	r.recall = math.NaN()
	if !w.hexKeys {
		want := make(map[string]bool, len(exactTop))
		for _, id := range exactTop {
			want[in.keys.key(id)] = true
		}
		hit := 0
		for _, res := range served.Results {
			if want[res.Item] {
				hit++
			}
		}
		r.recall = float64(hit) / float64(len(exactTop))
	}

	r.ops++
	snap, err := c.Snapshot(ctx)
	if err != nil {
		r.fail("encode: %v", err)
		return r
	}
	g, ok := snap.Guarantee()
	if !ok {
		r.fail("the /encode blob carries no k-tail guarantee")
		return r
	}
	bound := g.Bound(snap.Capacity(), tailK, o.res1(tailK))

	ids := append([]uint32(nil), exactTop...)
	src := rng.New(seed ^ 0x6a09e667f3bcc909)
	for range checked {
		ids = append(ids, uint32(src.Uint64n(uint64(len(o.counts)))))
	}
	for i, id := range ids {
		key := in.keys.key(id)
		r.ops++
		est, err := c.Estimate(ctx, key)
		if err != nil {
			r.fail("estimate %q: %v", key, err)
			continue
		}
		f := float64(o.counts[id])
		if f < est.Lo || f > est.Hi {
			r.violate("key %q: exact %.0f outside served [%.0f, %.0f]", key, f, est.Lo, est.Hi)
		}
		if i < tailK && math.Abs(est.Estimate-f) > bound*(1+1e-9) {
			r.violate("top key %q: error %.0f exceeds the k-tail bound %.1f", key, math.Abs(est.Estimate-f), bound)
		}
	}
	return r
}
