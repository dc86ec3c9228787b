package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	hh "repro"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/wire"
)

// replayItems is how much of the trace the in-process replay sends
// through the layers: one pass of the 4M-item trace.
const replayItems = traceItems

// cadence gives the replay the live run's periodic calls as item
// counts between calls (0 = the live run made none).
type cadence struct {
	snapshotItems, mergeItems, viewItems int
}

// replayed is what the in-process replay measured.
type replayed struct {
	items int
	// distinctFrac is the mean share of distinct keys per frame: the
	// useful work coalescing is left with, a property of the trace.
	distinctFrac float64
	layers       layerTimes
	metrics      map[string]float64
	spans        []span
}

// replay sends the workload's frames through the public layer functions
// in the hhwire listener's order — build, loopback transport, header
// parse, key decode, WAL append, UpdateBatch — with a span around each
// call, then prices the layers that run beside ingest (sync, snapshot,
// view rebuild, blob absorb, merge, codec, WAL replay) on the same data
// and summary configuration. Layers a workload's own cadence never calls
// are still measured a few times, so every workload reports every layer.
func replay(w *workload, in *inputs, dir string, scale float64, cad cadence, epoch time.Time) (*replayed, error) {
	frames := min(len(in.trace), scaled(replayItems, scale)) / batchKeys
	rp := &replayed{items: frames * batchKeys, layers: layerTimes{}, metrics: map[string]float64{}}
	tr := newTracer(epoch)
	tr.on = true
	var gc0 debug.GCStats
	debug.ReadGCStats(&gc0)

	reg, err := registry.New(daemonConfig(w, filepath.Join(dir, "reg"), "1h"))
	if err != nil {
		return nil, err
	}
	defer reg.Halt()
	entry, _ := reg.Get(summaryName)
	// The kernel alone, built with exactly the spec the registry
	// hardened (concurrent tier, arena, borrowed keys).
	sum, err := hh.NewFromSpec[string](entry.Spec())
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		return nil, err
	}
	defer cli.Close()
	srv, err := ln.Accept()
	ln.Close()
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	// One frame is in flight at a time and fits the socket buffers; the
	// deadline turns a wrong assumption into an error, not a hang.
	if err := cli.SetWriteDeadline(time.Now().Add(time.Minute)); err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(srv, 64<<10) // the listener's read buffer

	walOpts := persist.Options{
		Dir:            filepath.Join(dir, "wal"),
		MaxRecordBytes: registry.DefaultMaxBodyBytes + persist.MaxNameLen + 128,
	}
	store, err := persist.Open(walOpts)
	if err != nil {
		return nil, err
	}
	var (
		seq              persist.Seq
		body, frame, buf []byte
		hdr              [wire.HeaderLen]byte
		keys             []string
		wireBytes        int
		distinct         float64
		scratch          []uint32
		errs             []error
	)
	check := func(err error) {
		if err != nil && len(errs) == 0 {
			errs = append(errs, err)
		}
	}
	syncEvery := framesPerFlush
	queryEvery := max(frames/8, 2)
	for f := 0; f < frames && len(errs) == 0; f++ {
		ids := in.frame(f * batchKeys)
		scratch = append(scratch[:0], ids...)
		slices.Sort(scratch)
		distinct += float64(len(slices.Compact(scratch))) / float64(len(ids))
		ks := in.keys.batch(ids) // rendering inputs is not a layer
		id := uint64(f)
		root := tr.begin("frame", -1, id)

		h := tr.begin("client.build", root, id)
		body = body[:0]
		for _, k := range ks {
			body = registry.AppendBinaryRecord(body, k)
		}
		frame = wire.AppendFrame(frame[:0], summaryName, 0, body)
		tr.end(h)
		wireBytes += len(frame)

		h = tr.begin("transport.send", root, id)
		_, err := cli.Write(frame)
		tr.end(h)
		check(err)
		h = tr.begin("transport.recv", root, id)
		_, err = io.ReadFull(br, hdr[:])
		tr.end(h)
		check(err)
		h = tr.begin("wire.parse", root, id)
		nameLen, bodyLen, _, err := wire.ParseHeader(hdr[:], 0)
		tr.end(h)
		check(err)
		if len(errs) > 0 {
			break
		}
		buf = slices.Grow(buf[:0], nameLen+bodyLen)[:nameLen+bodyLen]
		h = tr.begin("transport.recv", root, id)
		_, err = io.ReadFull(br, buf)
		tr.end(h)
		check(err)
		h = tr.begin("registry.decode_keys", root, id)
		keys, err = registry.AppendBinaryKeysBorrowed(keys[:0], buf[nameLen:])
		tr.end(h)
		check(err)
		h = tr.begin("persist.append", root, id)
		check(store.AppendBatch(summaryName, &seq, keys))
		tr.end(h)
		h = tr.begin("summary.update_batch", root, id)
		sum.UpdateBatch(keys)
		tr.end(h)
		tr.end(root)

		if (f+1)%syncEvery == 0 {
			h := tr.begin("persist.sync", -1, id)
			check(store.Sync())
			tr.end(h)
		}
		// Queries right after a write: the concurrent tier must take a
		// fresh snapshot first.
		switch f % queryEvery {
		case 0:
			h := tr.begin("summary.top", -1, id)
			sum.TopAppend(nil, 10)
			tr.end(h)
		case 1:
			h := tr.begin("summary.heavyhitters", -1, id)
			sum.HeavyHitters(0.001)
			tr.end(h)
		}
	}
	check(store.Close())
	if len(errs) > 0 {
		return nil, fmt.Errorf("replaying frames: %w", errs[0])
	}
	walBytes, err := dirBytes(filepath.Join(walOpts.Dir, persist.WALDirName))
	if err != nil {
		return nil, err
	}
	replayRate, err := timeWALReplay(walOpts)
	if err != nil {
		return nil, err
	}

	blob, dec, err := timeCodec(tr, sum)
	if err != nil {
		return nil, err
	}
	if err := timeMerges(tr, dec, w.spec.Capacity); err != nil {
		return nil, err
	}
	if err := replayRegistry(tr, w, in, reg, entry, frames, cad, dir); err != nil {
		return nil, err
	}

	runtime.GC() // at least one pause sample, even from a replay that allocates little
	var gc1 debug.GCStats
	debug.ReadGCStats(&gc1)
	pauses := gc1.Pause[:min(int(gc1.NumGC-gc0.NumGC), len(gc1.Pause))]
	pauseMs := make([]float64, len(pauses))
	for i, p := range pauses {
		pauseMs[i] = ms(p)
	}

	selfTimes(tr.spans, rp.layers)
	rp.spans = tr.spans
	rp.distinctFrac = distinct / float64(frames)
	n := float64(rp.items)
	pMs := func(name string, q float64) float64 {
		if l := rp.layers[name]; l != nil {
			return ms(l.p(q))
		}
		return 0
	}
	m := rp.metrics
	m["client.frame_build_ns_per_item"] = rp.perItem("client.build")
	m["transport.ns_per_item"] = rp.perItem("transport.send", "transport.recv")
	m["transport.bytes_per_item"] = float64(wireBytes) / n
	m["wire.parse_ns_per_item"] = rp.perItem("wire.parse")
	m["registry.decode_keys_ns_per_item"] = rp.perItem("registry.decode_keys")
	// Per call, not per replayed item: the view and snapshot probes add
	// ingests of their own.
	m["registry.ingest_batch_ns_per_item"] = rp.mean("registry.ingest_batch") / batchKeys
	m["registry.view_rebuild_p50_ms"] = pMs("registry.view", 0.5)
	m["registry.view_rebuild_p99_ms"] = pMs("registry.view", 0.99)
	m["registry.absorb_blob_ms"] = pMs("registry.absorb_blob", 0.5)
	m["persist.append_ns_per_item"] = rp.perItem("persist.append")
	m["persist.wal_bytes_per_item"] = float64(walBytes) / n
	m["persist.sync_p50_ms"] = pMs("persist.sync", 0.5)
	m["persist.sync_p99_ms"] = pMs("persist.sync", 0.99)
	m["persist.snapshot_ms"] = pMs("persist.snapshot", 0.5)
	m["persist.replay_items_per_s"] = replayRate
	m["summary.update_batch_ns_per_item"] = rp.perItem("summary.update_batch")
	m["summary.top_after_write_us"] = pMs("summary.top", 0.5) * 1e3
	m["summary.heavyhitters_us"] = pMs("summary.heavyhitters", 0.5) * 1e3
	m["merge.ms_1"] = pMs("merge.1", 0.5)
	m["merge.ms_8"] = pMs("merge.8", 0.5)
	m["merge.ms_64"] = pMs("merge.64", 0.5)
	m["codec.encode_ms"] = pMs("codec.encode", 0.5)
	m["codec.decode_ms"] = pMs("codec.decode", 0.5)
	m["codec.blob_bytes"] = float64(len(blob))
	m["gc.pause_p99_ms"] = quantile(pauseMs, 0.99)
	return rp, nil
}

// perItem is the summed self time of the named layers per replayed
// item.
func (rp *replayed) perItem(names ...string) float64 {
	var d time.Duration
	for _, name := range names {
		if l := rp.layers[name]; l != nil {
			d += l.self
		}
	}
	return float64(d) / float64(rp.items)
}

// mean is the named layer's mean self time per call, in ns.
func (rp *replayed) mean(name string) float64 {
	if l := rp.layers[name]; l != nil && l.count > 0 {
		return float64(l.self) / float64(l.count)
	}
	return 0
}

// timeWALReplay reopens the replay's WAL and times Store.ReplayWAL
// delivering every batch record with its keys decoded.
func timeWALReplay(opts persist.Options) (float64, error) {
	store, err := persist.Open(opts)
	if err != nil {
		return 0, err
	}
	var keys []string
	items := 0
	start := time.Now()
	_, err = store.ReplayWAL(func(rec persist.Record) error {
		if rec.Kind != persist.KindBatch {
			return nil
		}
		var err error
		keys, err = registry.AppendBinaryKeysBorrowed(keys[:0], rec.Body)
		items += len(keys)
		return err
	})
	took := time.Since(start)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return float64(items) / took.Seconds(), err
}

// timeCodec encodes the replayed summary and decodes the blob, three
// times each.
func timeCodec(tr *tracer, sum hh.Summary[string]) ([]byte, hh.Summary[string], error) {
	var blob bytes.Buffer
	var dec hh.Summary[string]
	for i := range 3 {
		blob.Reset()
		h := tr.begin("codec.encode", -1, uint64(i))
		err := sum.Encode(&blob)
		tr.end(h)
		if err != nil {
			return nil, nil, err
		}
		h = tr.begin("codec.decode", -1, uint64(i))
		dec, err = hh.Decode[string](bytes.NewReader(blob.Bytes()))
		tr.end(h)
		if err != nil {
			return nil, nil, err
		}
	}
	return blob.Bytes(), dec, nil
}

// timeMerges times MergeSummaries over 1, 8 and 64 inputs at the
// workload's capacity. The inputs are one decoded blob repeated: merge
// only reads its inputs, and 64 distinct copies of an m=64k summary
// would cost half a gigabyte.
func timeMerges(tr *tracer, dec hh.Summary[string], m int) error {
	inputs := make([]hh.Summary[string], 64)
	for i := range inputs {
		inputs[i] = dec
	}
	for _, n := range []int{1, 8, 64} {
		name := fmt.Sprintf("merge.%d", n)
		for i := range 3 {
			h := tr.begin(name, -1, uint64(i))
			_, err := hh.MergeSummaries(m, inputs[:n]...)
			tr.end(h)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// replayRegistry feeds the frames through Entry.IngestBatch on a
// registry configured like the daemon, calling Snapshot, AbsorbBlob and
// View at the live run's cadence. Calls the cadence never made are then
// measured on their own: five blob absorbs, ten view rebuilds after an
// ingest, and five snapshots (on a durable registry of the same spec
// when the workload's own is not durable).
func replayRegistry(tr *tracer, w *workload, in *inputs, reg *registry.Registry, e *registry.Entry, frames int, cad cadence, dir string) error {
	every := func(items int) int {
		if items <= 0 {
			return 0
		}
		return max(items/batchKeys, 1)
	}
	snapEvery, mergeEvery, viewEvery := every(cad.snapshotItems), every(cad.mergeItems), every(cad.viewItems)
	counts := map[string]int{}
	timed := func(name string, id int, fn func() error) error {
		counts[name]++
		h := tr.begin(name, -1, uint64(id))
		err := fn()
		tr.end(h)
		return err
	}
	ingest := func(f int) error {
		return timed("registry.ingest_batch", f, func() error {
			return e.IngestBatch(in.keys.batch(in.frame(f * batchKeys)))
		})
	}
	absorb := func(i int) error {
		return timed("registry.absorb_blob", i, func() error {
			_, err := e.AbsorbBlob(bytes.NewReader(in.blob))
			return err
		})
	}
	view := func(i int) error {
		return timed("registry.view", i, func() error {
			_, err := e.View()
			return err
		})
	}
	snapshot := func(r *registry.Registry, i int) error {
		return timed("persist.snapshot", i, func() error {
			_, err := r.Snapshot()
			return err
		})
	}
	for f := range frames {
		err := ingest(f)
		if err == nil && snapEvery > 0 && (f+1)%snapEvery == 0 {
			err = snapshot(reg, f)
		}
		if err == nil && mergeEvery > 0 && (f+1)%mergeEvery == 0 {
			err = absorb(f)
		}
		if err == nil && viewEvery > 0 && (f+1)%viewEvery == 0 {
			err = view(f)
		}
		if err != nil {
			return fmt.Errorf("registry replay, frame %d: %w", f, err)
		}
	}
	for i := 0; counts["registry.absorb_blob"] < 5; i++ {
		if err := absorb(i); err != nil {
			return err
		}
	}
	for i := 0; counts["registry.view"] < 10; i++ {
		if err := errors.Join(ingest(i%frames), view(i)); err != nil {
			return err
		}
	}
	if counts["persist.snapshot"] >= 5 {
		return nil
	}
	snapReg, snapEntry := reg, e
	if !w.durable {
		cfg := daemonConfig(w, "", "")
		cfg.Durability = durability(filepath.Join(dir, "snap"), "1h")
		var err error
		if snapReg, err = registry.New(cfg); err != nil {
			return err
		}
		defer snapReg.Halt()
		snapEntry, _ = snapReg.Get(summaryName)
		for f := range min(frames, 64) {
			if err := snapEntry.IngestBatch(in.keys.batch(in.frame(f * batchKeys))); err != nil {
				return err
			}
		}
	}
	for i := 0; counts["persist.snapshot"] < 5; i++ {
		// A snapshot of an unchanged registry is skipped, so each one
		// follows an ingest.
		if err := snapEntry.IngestBatch(in.keys.batch(in.frame((i % frames) * batchKeys))); err != nil {
			return err
		}
		if err := snapshot(snapReg, i); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, de := range ents {
		info, err := de.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
