package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	hh "repro"
	"repro/client"
	"repro/internal/persist"
	"repro/internal/registry"
)

// snapshotInterval is the durable workload's periodic snapshot; setup
// boots use an interval no boot lives to see, so each of them replays
// the same preseeded WAL.
const (
	snapshotInterval = 2 * time.Second
	setupSnapshot    = "1h"
)

// env is what every run of a benchmark invocation shares.
type env struct {
	buildDir  string // run directories and the daemon binary live here
	daemonBin string
	scale     float64
	dur       time.Duration // measured phase
	traced    bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra"`
	Notes     []string          `json:"notes,omitempty"`
	// Breakdown splits the daemon's CPU per item over the layers on its
	// path; Layers is every replayed layer's self time.
	Breakdown []share             `json:"where_the_time_goes,omitempty"`
	Layers    map[string]layerRow `json:"layers,omitempty"`
	spans     [][]span
}

// share is one row of the "where the time goes" table.
type share struct {
	Layer     string  `json:"layer"`
	NsPerItem float64 `json:"ns_per_item"`
	OfCPU     float64 `json:"of_daemon_cpu"`
}

// layerRow is one replayed layer.
type layerRow struct {
	Calls         int     `json:"calls"`
	SelfNsPerItem float64 `json:"self_ns_per_item"`
	P50Us         float64 `json:"p50_us"`
	P99Us         float64 `json:"p99_us"`
}

func durability(dir, snapshotEvery string) *hh.DurabilitySpec {
	return &hh.DurabilitySpec{Dir: dir, SnapshotInterval: snapshotEvery, Fsync: hh.FsyncInterval}
}

// daemonConfig is the registry config the daemon boots with (and the
// replay's in-process registry mirrors).
func daemonConfig(w *workload, dataDir, snapshotEvery string) registry.Config {
	cfg := registry.Config{
		MaxBlobs:  registry.DefaultMaxBlobs,
		Summaries: map[string]hh.Spec{summaryName: w.spec},
	}
	if w.durable {
		cfg.Durability = durability(dataDir, snapshotEvery)
	}
	return cfg
}

func writeConfig(path string, cfg registry.Config) error {
	b, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// preseed writes the durable workload's starting state: a WAL of
// preseedItems burst items and no snapshot, built through the same
// persist API the daemon logs with. The oracle counts every item.
func preseed(w *workload, in *inputs, seed uint64, scale float64, dir string, o *oracle) error {
	store, err := persist.Open(persist.Options{Dir: dir})
	if err != nil {
		return err
	}
	spec, err := json.Marshal(w.spec)
	if err == nil {
		err = store.AppendCreate(summaryName, spec)
	}
	var seq persist.Seq
	// Generated a chunk at a time to bound memory; each chunk is whole
	// Burst blocks, so the duplication profile matches the live traffic.
	const chunk = 1 << 20
	total := scaled(preseedItems, scale)
	for lo := 0; lo < total && err == nil; lo += chunk {
		ids := narrow(w.trace(seed^0x3c6ef372fe94f82b+uint64(lo), min(chunk, total-lo)))
		o.addIDs(ids, 1)
		for b := 0; b < len(ids) && err == nil; b += batchKeys {
			err = store.AppendBatch(summaryName, &seq, in.keys.batch(ids[b:min(b+batchKeys, len(ids))]))
		}
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("preseeding the WAL: %w", err)
	}
	return nil
}

// runWorkload runs one workload end to end: inputs, set-up (boots,
// recovery included), the measured phase, the exact-oracle checks, the
// drain, and on the durable workload a reboot that must recover every
// acknowledged item. A traced run adds spans to the live phase and the
// in-process replay of the layers.
func runWorkload(ev *env, w *workload, seed uint64) (*result, error) {
	dir, err := os.MkdirTemp(ev.buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := makeInputs(w, seed, ev.scale)
	if err != nil {
		return nil, err
	}
	o := newOracle(w.universe)
	dataDir := filepath.Join(dir, "data")
	if w.durable {
		if err := preseed(w, in, seed, ev.scale, dataDir, o); err != nil {
			return nil, err
		}
	}
	setupCfg, runCfg := filepath.Join(dir, "setup.json"), filepath.Join(dir, "run.json")
	if err := writeConfig(setupCfg, daemonConfig(w, dataDir, setupSnapshot)); err != nil {
		return nil, err
	}
	if err := writeConfig(runCfg, daemonConfig(w, dataDir, snapshotInterval.String())); err != nil {
		return nil, err
	}
	hcA, hcB := newHTTPClient(), newHTTPClient()
	defer hcA.CloseIdleConnections()
	defer hcB.CloseIdleConnections()

	d, setups, readyAt, err := setUp(ev, w, setupCfg, runCfg, hcB)
	if err != nil {
		return nil, err
	}
	defer d.kill()

	ctx := context.Background()
	qc := client.New(d.base, summaryName, client.WithHTTPClient(hcB))
	st0, err := summaryStats(ctx, hcB, d.base)
	if err != nil {
		return nil, err
	}
	// A traced run alternates traced and untraced twentieths of the
	// measured phase.
	p := phase{in: in, seed: seed, dur: ev.dur, epoch: time.Now(),
		cutEvery: max(ev.dur/10, minSlice),
		cpu:      func() (time.Duration, error) { return procCPU(d.pid()) }}
	if ev.traced {
		p.sl.every = ev.dur / 20
	}
	var lv live
	if w.http {
		lv = driveHTTP(ctx, client.New(d.base, summaryName, client.WithHTTPClient(hcA)), qc, p)
	} else {
		wc, err := client.DialWire(d.wire, summaryName)
		if err != nil {
			return nil, err
		}
		lv = driveWire(wc, p)
		if err := wc.Close(); err != nil {
			lv.fail("closing the wire connection: %v", err)
		}
	}
	rss, err := procPeakRSS(d.pid())
	if err != nil {
		return nil, err
	}
	if w.durable {
		// Start the probe and the checks just after a periodic snapshot
		// (they tick every snapshotInterval from readiness), so none
		// lands on a query's concurrent-tier rebuild: one that does can
		// commit a stale blob under a current WAL pin (README, "Known
		// daemon issues"), and the reboot check would catch the loss.
		since := time.Since(readyAt) % snapshotInterval
		time.Sleep((snapshotInterval - since + snapshotInterval/20) % snapshotInterval)
	}
	if !w.http {
		// The probe runs for a tenth of the measured phase, so its
		// latencies average over time as well as over queries.
		now := time.Now()
		q := runQueries(ctx, qc, p, now, now.Add(ev.dur/10), 0)
		lv.queryLat, lv.spans = q.lat, append(lv.spans, q.spans)
		lv.ops, lv.failed, lv.notes = lv.ops+q.ops, lv.failed+q.failed, append(lv.notes, q.notes...)
	}
	st1, err := summaryStats(ctx, hcB, d.base)
	if err != nil {
		return nil, err
	}

	o.addTrace(in.trace, lv.positions)
	for _, pos := range lv.failedFrames {
		for _, id := range in.frame(pos) {
			o.counts[id]--
		}
		o.mass -= batchKeys
	}
	o.addIDs(in.agent, uint64(lv.merges))
	chk := checkAnswers(ctx, qc, w, in, o, seed)

	r := &result{Workload: w.name, Seed: seed, Traced: ev.traced, Metrics: map[string]metric{}, Extra: map[string]metric{}}
	r.Attempted = lv.ops + chk.ops
	r.Failed = lv.failed + chk.failed
	r.Notes = append(lv.notes, chk.notes...)
	if err := r.drainAndReboot(ev, w, d, runCfg, hcB, o); err != nil {
		return nil, err
	}
	r.Correct = chk.violations == 0 && r.Failed == 0

	rates, cpuPerItem := lv.slices(p)
	e2e := map[string]float64{
		"setup_s":                median(setups),
		"ingest_items_per_s":     median(rates),
		"server_cpu_ns_per_item": median(cpuPerItem),
		"ingest_p99_ms":          lv.sliceQuantile(p, 0.99),
		"rss_peak_mb":            rss,
	}
	queryLat := map[string]float64{
		"query.p50_ms": quantile(lv.queryLat, 0.5),
		"query.p99_ms": quantile(lv.queryLat, 0.99),
	}
	// On the closed loops the median ingest latency is the throughput
	// again, so it is reported beside the metrics rather than bounded.
	r.Extra["ingest_p50_ms"] = metric{quantile(lv.ingestLat, 0.5), "ms"}
	r.Extra["failed_frac"] = metric{float64(r.Failed) / float64(r.Attempted), "fraction"}
	r.Extra["bound_violations"] = metric{float64(chk.violations), "count"}
	if !math.IsNaN(chk.recall) {
		r.Extra["top100_recall"] = metric{chk.recall, "fraction"}
	}
	r.Extra["ingest_samples"] = metric{float64(len(lv.ingestLat)), "count"}
	r.Extra["query_samples"] = metric{float64(len(lv.queryLat)), "count"}
	if w.http {
		r.Extra["gen_late_p99_ms"] = metric{quantile(lv.late, 0.99), "ms"}
	}
	if !ev.traced {
		r.set(r.Metrics, e2e)
		r.set(r.Extra, queryLat)
		return r, nil
	}
	r.set(r.Extra, e2e)
	facts := liveFacts{
		lv:       lv,
		items:    lv.positions - len(lv.failedFrames)*batchKeys,
		rate:     e2e["ingest_items_per_s"],
		cpu:      e2e["server_cpu_ns_per_item"],
		rebuilds: float64(st1.SnapshotGeneration - st0.SnapshotGeneration),
		memory:   st1.Memory,
	}
	layer, err := r.traceLayers(ev, w, in, filepath.Join(dir, "replay"), p, facts)
	if err != nil {
		return nil, err
	}
	maps.Copy(layer, queryLat)
	r.set(r.Metrics, layer)
	return r, nil
}

// setUp boots the daemon w.boots times and keeps the last boot running;
// every boot does the same work (on the durable workload, replaying the
// preseeded WAL). The earlier boots use a snapshot interval none of them
// lives to see, so none of them changes the data dir.
func setUp(ev *env, w *workload, setupCfg, runCfg string, hc *http.Client) (*daemon, []float64, time.Time, error) {
	var setups []float64
	for b := range w.boots {
		cfg := setupCfg
		if b == w.boots-1 {
			cfg = runCfg
		}
		d, took, err := startDaemon(ev.daemonBin, cfg, !w.http, hc)
		if err != nil {
			return nil, nil, time.Time{}, err
		}
		setups = append(setups, took.Seconds())
		if b == w.boots-1 {
			return d, setups, time.Now(), nil
		}
		d.kill()
		hc.CloseIdleConnections()
	}
	return nil, nil, time.Time{}, fmt.Errorf("workload %s boots %d times", w.name, w.boots)
}

// drainAndReboot drains the daemon with SIGTERM, counting killed wire
// connections as failures; on the durable workload it then reboots on
// the same data dir, which must recover the preseeded WAL plus every
// acknowledged item.
func (r *result) drainAndReboot(ev *env, w *workload, d *daemon, runCfg string, hc *http.Client, o *oracle) error {
	failf := func(format string, args ...any) {
		r.Failed++
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
	r.Attempted++
	lines, err := d.drain()
	if err != nil {
		failf("%v", err)
	}
	if !w.http {
		kills, ok := wireKills(lines)
		switch {
		case !ok:
			failf("no wire drain line")
		case kills > 0:
			failf("the daemon killed %d wire connections", kills)
		}
		r.Extra["wire_kills"] = metric{float64(kills), "count"}
	}
	if !w.durable {
		return nil
	}
	r.Attempted++
	rebooted, took, err := startDaemon(ev.daemonBin, runCfg, true, hc)
	if err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	st, err := summaryStats(context.Background(), hc, rebooted.base)
	// Killed, not drained: hhserverd answers /healthz a moment before
	// its SIGTERM handler is installed, and this daemon has nothing left
	// to persist.
	rebooted.kill()
	switch {
	case err != nil:
		failf("reboot: %v", err)
	case st.N != float64(o.mass):
		failf("reboot recovered mass %.0f, acknowledged %d", st.N, o.mass)
	}
	r.Extra["reboot_s"] = metric{took.Seconds(), "s"}
	return nil
}

// liveFacts is what the per-layer metrics take from the live run.
type liveFacts struct {
	lv       live
	items    int     // acknowledged update items
	rate     float64 // ingest_items_per_s
	cpu      float64 // server_cpu_ns_per_item
	rebuilds float64 // union-view rebuilds (/metricsz snapshot_generation delta)
	memory   *registry.MemStats
}

// traceLayers runs the in-process replay and returns the per-layer
// metrics, filling the "where the time goes" table: the daemon's CPU
// per item against the self time of the layers on its path, plus the
// live run's periodic calls amortized over its items.
func (r *result) traceLayers(ev *env, w *workload, in *inputs, dir string, p phase, f liveFacts) (map[string]float64, error) {
	var cad cadence
	switch {
	case w.durable:
		cad.snapshotItems = int(f.rate * snapshotInterval.Seconds())
	case w.http:
		cad.mergeItems = batchKeys * int(mergeEvery/updateEvery)
		cad.viewItems = batchKeys * int(queryEvery/updateEvery)
	}
	rp, err := replay(w, in, dir, ev.scale, cad, p.epoch)
	if err != nil {
		return nil, err
	}
	layer := rp.metrics
	layer["client.flush_p50_ms"] = quantile(f.lv.ackLat, 0.5)
	layer["client.flush_p99_ms"] = quantile(f.lv.ackLat, 0.99)
	layer["registry.view_rebuilds_per_query"] = f.rebuilds / float64(max(len(f.lv.queryLat), 1))
	if f.memory != nil {
		layer["arena.bytes_per_tracked_key"] = f.memory.BytesPerTrackedKey
		layer["arena.live_ratio"] = f.memory.LiveRatio
	}
	layer["trace.overhead_frac"] = f.lv.overhead.frac()
	r.Extra["summary.distinct_per_batch_frac"] = metric{rp.distinctFrac, "fraction"}

	var sum float64
	add := func(name string, ns float64) {
		sum += ns
		r.Breakdown = append(r.Breakdown, share{name, ns, ns / f.cpu})
	}
	if !w.http {
		add("transport.recv", rp.perItem("transport.recv"))
		add("wire.parse", rp.perItem("wire.parse"))
	}
	add("registry.decode_keys", rp.perItem("registry.decode_keys"))
	if w.durable {
		add("persist.append", rp.perItem("persist.append"))
	}
	add("summary.update_batch", rp.perItem("summary.update_batch"))
	liveItems := float64(max(f.items, 1))
	switch {
	case w.durable:
		snapshots := math.Floor(f.lv.elapsed.Seconds() / snapshotInterval.Seconds())
		add("persist.snapshot (amortized)", snapshots*rp.mean("persist.snapshot")/liveItems)
	case w.http:
		add("registry.view (amortized)", f.rebuilds*rp.mean("registry.view")/liveItems)
		add("registry.absorb_blob (amortized)", float64(f.lv.merges)*rp.mean("registry.absorb_blob")/liveItems)
	}
	r.Breakdown = append(r.Breakdown, share{"residual", f.cpu - sum, (f.cpu - sum) / f.cpu})
	layer["reconcile.residual_frac"] = (f.cpu - sum) / f.cpu

	r.Layers = map[string]layerRow{}
	for _, name := range sortedKeys(rp.layers) {
		l := rp.layers[name]
		r.Layers[name] = layerRow{
			Calls:         l.count,
			SelfNsPerItem: float64(l.self) / float64(rp.items),
			P50Us:         float64(l.p(0.5)) / 1e3,
			P99Us:         float64(l.p(0.99)) / 1e3,
		}
	}
	r.spans = append(f.lv.spans, rp.spans)
	return layer, nil
}

// set records vals into dst with their units. A value that is not a
// finite number is a measurement that did not happen: the run fails.
func (r *result) set(dst map[string]metric, vals map[string]float64) {
	for name, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.Failed++
			r.Correct = false
			r.Notes = append(r.Notes, name+" was not measured")
			v = 0
		}
		dst[name] = metric{v, units[name]}
	}
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }
