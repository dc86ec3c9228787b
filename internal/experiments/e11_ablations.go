package experiments

import (
	"time"

	"repro/internal/harness"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// E11Ablations quantifies the implementation's main design choices:
//
//   - SPACESAVING backing structure: Stream-Summary bucket list (O(1) per
//     update) vs (count, id) min-heap (O(log m), deterministic tie-break);
//   - FREQUENT bucket-list implementation vs the naive O(m)-decrement
//     transcription;
//   - Count-Min plain vs conservative update (error, same speed class).
//
// Throughput is wall-clock over the whole stream — indicative, not a
// statistically rigorous benchmark (bench_test.go holds the testing.B
// versions).
func E11Ablations(cfg Config) *harness.Table {
	const m = 1000
	s := stream.Zipf(cfg.Universe, cfg.Alpha, cfg.N, stream.OrderRandom, cfg.Seed)
	_, freq := groundTruth(s, cfg.Universe)

	t := harness.NewTable(
		"E11: ablations — backing structures and update rules",
		"variant", "ns/update", "max err", "mean err",
	)

	timeAlg := func(update func(uint64)) float64 {
		start := time.Now()
		for _, x := range s {
			update(x)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(s))
	}

	for _, name := range []string{"spacesaving", "spacesaving-heap", "frequent", "lossycounting"} {
		alg := counterAlg(name, m)
		ns := timeAlg(alg.Update)
		met := harness.Evaluate(estimator(alg), freq)
		t.Addf(name, ns, met.MaxErr, met.MeanErr)
	}

	cmPlain := sketch.NewCountMin(4, m/4, cfg.Seed)
	ns := timeAlg(cmPlain.Update)
	met := harness.Evaluate(func(i uint64) float64 { return float64(cmPlain.Estimate(i)) }, freq)
	t.Addf("count-min", ns, met.MaxErr, met.MeanErr)

	cmCons := sketch.NewCountMinConservative(4, m/4, cfg.Seed)
	ns = timeAlg(cmCons.Update)
	met = harness.Evaluate(func(i uint64) float64 { return float64(cmCons.Estimate(i)) }, freq)
	t.Addf("count-min-conservative", ns, met.MaxErr, met.MeanErr)

	cs := sketch.NewCountSketch(5, m/5, cfg.Seed)
	ns = timeAlg(cs.Update)
	met = harness.Evaluate(func(i uint64) float64 { return float64(cs.EstimateNonNegative(i)) }, freq)
	t.Addf("count-sketch", ns, met.MaxErr, met.MeanErr)

	t.Note("m=%d counters (sketches sized to the same word budget); stream N=%d", m, cfg.N)
	return t
}
