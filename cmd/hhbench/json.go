package main

// The -json mode: a fixed, machine-readable ingest benchmark suite
// (algorithm × workload × sharding) whose output feeds the CI perf gate.
// Unlike the experiment tables (accuracy-focused) this suite measures
// the ingestion hot path only: UpdateBatch throughput, per-item latency
// and per-item allocation rate.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	hh "repro"
	"repro/internal/benchjson"
	"repro/internal/stream"
)

// jsonBatch is the UpdateBatch size of the -json suite, matching the
// bench_test.go micro-benchmarks so numbers are comparable.
const jsonBatch = 4096

// jsonSuite enumerates the measured configurations.
var jsonAlgos = []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent, hh.AlgoLossyCounting}

var jsonWorkloads = []struct {
	name  string
	alpha float64 // 0 = uniform
}{
	{"zipf-1.1", 1.1},
	{"uniform", 0},
}

// jsonShardings crosses the sharding axis with the window layer: the
// windowed rows ingest through an 8-epoch ring sized to 1/16 of the
// stream, so every row exercises steady-state epoch rotation (the
// covered window turns over repeatedly per pass). windowDiv keeps the
// window proportional to -n, so -smoke and full-size runs rotate
// equally often per item.
var jsonShardings = []struct {
	name     string
	shards   int
	windowed bool
}{
	{"unsharded", 0, false},
	{"sharded8", 8, false},
	{"unsharded-win", 0, true},
	{"sharded8-win", 8, true},
}

// windowDiv divides the stream length to obtain the bench window.
const windowDiv = 16

// runJSON runs the suite and writes the report to path. n is the
// measured stream length per configuration; m the counter budget.
// smoke selects the CI-sized capacity tier (m=64k only, shorter
// replay); the full run includes the m=1M rows.
func runJSON(path string, n uint64, universe int, seed uint64, m int, smoke bool) error {
	report := benchjson.New()
	for _, w := range jsonWorkloads {
		var s []uint64
		if w.alpha == 0 {
			s = stream.Uniform(universe, n, seed)
		} else {
			s = stream.Zipf(universe, w.alpha, n, stream.OrderRandom, seed)
		}
		for _, a := range jsonAlgos {
			for _, sh := range jsonShardings {
				window := uint64(0)
				if sh.windowed {
					window = max(n/windowDiv, 1)
				}
				rec := measureIngest(a, w.name, sh.shards, window, s, m)
				report.Add(rec)
				fmt.Fprintf(os.Stderr, "%-45s %8.2f M items/s  %6.1f ns/op  %.3f allocs/op\n",
					rec.Name, rec.ItemsPerSec/1e6, rec.NsPerOp, rec.AllocsPerOp)
			}
		}
	}
	// Coalesce rows: the in-batch coalescing kernel on the workloads it
	// was built for and against. burst-1.3 delivers 4096-item batches
	// where 90% of each batch repeats an in-batch key (stream.Burst) —
	// coalescing collapses those to one AddN per distinct key. The
	// all-distinct row is the adversarial worst case: every key of every
	// batch is unique, so the coalescing table is pure overhead and the
	// row prices its bound (plus maximal eviction churn).
	burst := stream.Burst(universe, 1.3, n, jsonBatch, 0.9, seed)
	distinct := make([]uint64, n)
	for i := range distinct {
		distinct[i] = uint64(i)
	}
	for _, a := range []hh.Algo{hh.AlgoSpaceSaving, hh.AlgoFrequent} {
		for _, cw := range []struct {
			name string
			s    []uint64
		}{
			{"burst-1.3-dup0.9", burst},
			{"all-distinct", distinct},
		} {
			rec := measureIngestFamily("coalesce", a, cw.name, 8, 0, cw.s, m)
			report.Add(rec)
			fmt.Fprintf(os.Stderr, "%-45s %8.2f M items/s  %6.1f ns/op  %.3f allocs/op\n",
				rec.Name, rec.ItemsPerSec/1e6, rec.NsPerOp, rec.AllocsPerOp)
		}
	}
	// Served rows: the composition the daemon's registry builds for every
	// counter summary (string keys, WithConcurrent, WithArena,
	// WithBorrowedKeys) on the two shapes its ingest sees most — burst
	// frames into 8 shards, and all-distinct hashed keys into m=64k,
	// where every item is a miss plus an eviction. The uint64 rows above
	// hash with mix64 and the map index, so they cannot show what the
	// string hash and the arena index cost. The recovery row replays the
	// burst frames from a WAL, as a durable daemon's boot does
	// (recovery.go).
	burstKeys := make([]string, len(burst))
	for i, x := range burst {
		burstKeys[i] = strconv.FormatUint(x, 10)
	}
	hexKeys := make([]string, n)
	for i := range hexKeys {
		hexKeys[i] = fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15) // odd multiplier: a bijection, so all distinct
	}
	for _, rec := range []benchjson.Record{
		measureServed("burst-1.3-dup0.9", 8, m, burstKeys),
		measureServed("all-distinct-hex", 0, servedDistinctM, hexKeys),
		measureRecovery("burst-1.3-dup0.9", 8, m, burstKeys),
	} {
		report.Add(rec)
		fmt.Fprintf(os.Stderr, "%-45s %8.2f M items/s  %6.1f ns/op  %.3f allocs/op\n",
			rec.Name, rec.ItemsPerSec/1e6, rec.NsPerOp, rec.AllocsPerOp)
	}
	// The same two shapes pushed over hhwire TCP into the registry, each
	// with folding WireConn frames and a raw-v1 twin (serverwire.go).
	for _, rec := range measureServedWire(burstKeys, hexKeys, m) {
		report.Add(rec)
		fmt.Fprintf(os.Stderr, "%-45s %8.2f M items/s  %6.1f ns/op  %.3f allocs/op\n",
			rec.Name, rec.ItemsPerSec/1e6, rec.NsPerOp, rec.AllocsPerOp)
	}
	// Contended-ingest rows: the concurrency tier under 1/4/8 writer
	// goroutines, a mixed reader+writer run, and the per-item Update
	// path.
	zipf := stream.Zipf(universe, 1.1, n, stream.OrderRandom, seed)
	for _, rec := range measureContended(zipf, m) {
		report.Add(rec)
		fmt.Fprintf(os.Stderr, "%-45s %8.2f M items/s  %6.1f ns/op  %.3f allocs/op\n",
			rec.Name, rec.ItemsPerSec/1e6, rec.NsPerOp, rec.AllocsPerOp)
	}
	// Server-path rows: the same Zipf stream pushed over loopback HTTP
	// into an in-process hhserverd registry by 1 and 4 agents.
	for _, rec := range measureServer(zipf, m) {
		report.Add(rec)
		fmt.Fprintf(os.Stderr, "%-45s %8.2f M items/s  %6.1f ns/op  %.3f allocs/op\n",
			rec.Name, rec.ItemsPerSec/1e6, rec.NsPerOp, rec.AllocsPerOp)
	}
	// Wire-path rows: the same stream pushed through the hhwire binary
	// protocol (docs/WIRE.md) over loopback TCP and UDP.
	for _, rec := range measureServerWire(zipf, m) {
		report.Add(rec)
		fmt.Fprintf(os.Stderr, "%-45s %8.2f M items/s  %6.1f ns/op  %.3f allocs/op\n",
			rec.Name, rec.ItemsPerSec/1e6, rec.NsPerOp, rec.AllocsPerOp)
	}
	// Capacity-tier rows: string-keyed trace replay at realistic
	// budgets, measuring bytes per tracked key, live heap objects and
	// GC pauses — arena vs map (capacity.go).
	runCapacity(report, seed, smoke)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := benchjson.Write(f, report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// contendedShards is the shard count of the contended suite — the
// 8-way striping the README's scaling guidance recommends.
const contendedShards = 8

// contendedPasses is the timed-pass count of the contended rows: fewer
// than the single-threaded suite's measurePasses because each pass
// spawns goroutines, and scheduler noise is filtered by the
// cross-process -minreport minimum anyway.
const contendedPasses = 3

// measureContended times multi-goroutine ingestion into one shared
// summary. Writer counts cross the batch path (the production ingest
// path) with a mixed reader+writer row — one reader burst-polling
// TopAppend and Estimate, which under the concurrency tier must not
// collapse writer throughput — plus a per-item Update row.
func measureContended(s []uint64, m int) []benchjson.Record {
	newSum := func() hh.Summary[uint64] {
		return hh.New[uint64](hh.WithCapacity(m), hh.WithShards(contendedShards), hh.WithConcurrent())
	}
	batchW := func(sum hh.Summary[uint64], part []uint64) {
		for lo := 0; lo < len(part); lo += jsonBatch {
			sum.UpdateBatch(part[lo:min(lo+jsonBatch, len(part))])
		}
	}
	itemW := func(sum hh.Summary[uint64], part []uint64) {
		for _, x := range part {
			sum.Update(x)
		}
	}
	var recs []benchjson.Record
	for _, writers := range []int{1, 4, 8} {
		recs = append(recs, timeContended(
			fmt.Sprintf("contended/spacesaving/zipf-1.1/concurrent%d/w%d", contendedShards, writers),
			s, writers, jsonBatch, newSum(), batchW, nil))
	}
	// Burst-polling reader: 256 queries back to back, a 5ms sleep
	// between bursts — see the -ingest reader for why an unbounded spin
	// would measure the CPU count, not the tier.
	reader := func(sum hh.Summary[uint64], stop *atomic.Bool) {
		var buf []hh.WeightedEntry[uint64]
		for !stop.Load() {
			for i := uint64(0); i < 256 && !stop.Load(); i++ {
				buf = sum.TopAppend(buf[:0], 10)
				sum.Estimate(i % 1000)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	recs = append(recs, timeContended(
		fmt.Sprintf("contended/spacesaving/zipf-1.1/concurrent%d/w8-mixed", contendedShards),
		s, 8, jsonBatch, newSum(), batchW, reader))
	recs = append(recs, timeContended(
		fmt.Sprintf("contended/spacesaving/zipf-1.1/concurrent%d-update/w8", contendedShards),
		s, 8, 1, newSum(), itemW, nil))
	return recs
}

// timeContended warms the summary once, then times contendedPasses
// runs of `writers` goroutines splitting the stream, keeping the
// fastest. When reader is non-nil one extra goroutine polls for the
// duration of each timed pass.
func timeContended(name string, s []uint64, writers, batch int, sum hh.Summary[uint64],
	write func(hh.Summary[uint64], []uint64), reader func(hh.Summary[uint64], *atomic.Bool)) benchjson.Record {
	pass := func() {
		var wg sync.WaitGroup
		per := (len(s) + writers - 1) / writers
		for w := 0; w < writers; w++ {
			lo := w * per
			hi := min(lo+per, len(s))
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(part []uint64) {
				defer wg.Done()
				write(sum, part)
			}(s[lo:hi])
		}
		wg.Wait()
	}
	pass() // warm: fill counters and steady-state the maps/slabs
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var elapsed time.Duration
	for p := 0; p < contendedPasses; p++ {
		var stop atomic.Bool
		var rwg sync.WaitGroup
		if reader != nil {
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				reader(sum, &stop)
			}()
		}
		start := time.Now()
		pass()
		d := time.Since(start)
		stop.Store(true)
		rwg.Wait()
		if p == 0 || d < elapsed {
			elapsed = d
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(s))
	return benchjson.Record{
		Name:        name,
		Algo:        hh.AlgoSpaceSaving.String(),
		Workload:    "zipf-1.1",
		Shards:      contendedShards,
		Batch:       batch,
		Items:       uint64(len(s)),
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		ItemsPerSec: n / elapsed.Seconds(),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / (n * contendedPasses),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / (n * contendedPasses),
	}
}

// measurePasses is the number of timed passes per configuration; the
// fastest is reported. Minimum-of-K is the standard defense against
// scheduler and cache noise — a regression must slow down every pass to
// move the reported number, which keeps the CI gate stable.
const measurePasses = 5

// measureIngest times one configuration through timeBatches.
func measureIngest(a hh.Algo, workload string, shards int, window uint64, s []uint64, m int) benchjson.Record {
	return measureIngestFamily("ingest", a, workload, shards, window, s, m)
}

// measureIngestFamily is measureIngest with an explicit row-family
// prefix, shared by the ingest/ and coalesce/ families.
func measureIngestFamily(family string, a hh.Algo, workload string, shards int, window uint64, s []uint64, m int) benchjson.Record {
	opts := []hh.Option{hh.WithAlgorithm(a), hh.WithCapacity(m)}
	if shards > 0 {
		opts = append(opts, hh.WithShards(shards))
	}
	if window > 0 {
		opts = append(opts, hh.WithWindow(window))
	}
	rec := timeBatches(hh.New[uint64](opts...), s)
	rec.Name = fmt.Sprintf("%s/%v/%s/%s", family, a, workload, shardingName(shards, window))
	rec.Algo = a.String()
	rec.Workload = workload
	rec.Shards = shards
	return rec
}

// servedDistinctM is the capacity of the served all-distinct row, the
// m=65536 of the serving benchmark's all-distinct workload.
const servedDistinctM = 65536

// measureServed times SPACESAVING in the composition the daemon's
// registry serves (see the served rows in runJSON).
func measureServed(workload string, shards, m int, keys []string) benchjson.Record {
	opts := []hh.Option{hh.WithCapacity(m), hh.WithConcurrent(), hh.WithArena(), hh.WithBorrowedKeys()}
	if shards > 0 {
		opts = append(opts, hh.WithShards(shards))
	}
	rec := timeBatches(hh.New[string](opts...), keys)
	rec.Name = fmt.Sprintf("served/%v/%s/%s", hh.AlgoSpaceSaving, workload, shardingName(shards, 0))
	rec.Algo = hh.AlgoSpaceSaving.String()
	rec.Workload = workload
	rec.Shards = shards
	return rec
}

// timeBatches feeds s to sum in jsonBatch-sized UpdateBatch calls,
// timed by timePasses.
func timeBatches[K comparable](sum hh.Summary[K], s []K) benchjson.Record {
	return timePasses(len(s), func() {
		for lo := 0; lo < len(s); lo += jsonBatch {
			sum.UpdateBatch(s[lo:min(lo+jsonBatch, len(s))])
		}
	})
}

// timePasses runs pass, which handles n items: one warming pass
// (filling counters and growing maps to steady state), then
// measurePasses timed passes, reporting the fastest, with allocation
// counters read around all of them. Warming first means the reported
// allocs/op reflect the steady-state hot path, which is the regression
// the CI gate guards — construction cost is a one-off.
func timePasses(n int, pass func()) benchjson.Record {
	pass() // warm
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var elapsed time.Duration
	for p := 0; p < measurePasses; p++ {
		start := time.Now()
		pass()
		if d := time.Since(start); p == 0 || d < elapsed {
			elapsed = d
		}
	}
	runtime.ReadMemStats(&after)
	items := float64(n)
	return benchjson.Record{
		Batch:       jsonBatch,
		Items:       uint64(n),
		NsPerOp:     float64(elapsed.Nanoseconds()) / items,
		ItemsPerSec: items / elapsed.Seconds(),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / (items * measurePasses),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / (items * measurePasses),
	}
}

func shardingName(shards int, window uint64) string {
	name := "unsharded"
	if shards > 0 {
		name = fmt.Sprintf("sharded%d", shards)
	}
	if window > 0 {
		name += "-win"
	}
	return name
}

// runMinReport merges several reports of the same suite into their
// element-wise minimum and writes the result — the cross-process
// counterpart of the in-process minimum-of-K (see benchjson.Min): the
// CI perf job measures in a few fresh processes and gates on the merge,
// so a per-process unlucky map hash seed cannot fail the build.
func runMinReport(outPath string, inPaths []string) {
	reports := make([]*benchjson.Report, 0, len(inPaths))
	for _, p := range inPaths {
		r, err := readReport(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hhbench: %s: %v\n", p, err)
			os.Exit(1)
		}
		reports = append(reports, r)
	}
	merged := benchjson.Min(reports...)
	f, err := os.Create(outPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhbench: %v\n", err)
		os.Exit(1)
	}
	err = benchjson.Write(f, merged)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhbench: writing %s: %v\n", outPath, err)
		os.Exit(1)
	}
	fmt.Printf("min of %d reports written to %s\n", len(reports), outPath)
}

// runCompare loads two reports and exits non-zero when cur regresses
// against base beyond the threshold — the CI perf gate.
func runCompare(basePath, curPath string, threshold float64) {
	base, err := readReport(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhbench: %s: %v\n", basePath, err)
		os.Exit(1)
	}
	cur, err := readReport(curPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhbench: %s: %v\n", curPath, err)
		os.Exit(1)
	}
	regs, med := benchjson.Compare(base, cur, threshold)
	fmt.Printf("suite-wide median ns/op ratio vs baseline: %.3f (hardware normalization)\n", med)
	if len(regs) == 0 {
		fmt.Printf("no regressions beyond %.0f%% across %d benchmarks\n", threshold*100, len(base.Records))
		return
	}
	fmt.Fprintf(os.Stderr, "%d regression(s) beyond %.0f%%:\n", len(regs), threshold*100)
	for _, g := range regs {
		fmt.Fprintf(os.Stderr, "  %s\n", g)
	}
	os.Exit(1)
}

func readReport(path string) (*benchjson.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return benchjson.Read(f)
}
