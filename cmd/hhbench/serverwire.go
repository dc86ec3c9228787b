package main

// The serverwire rows of the -json suite: the hhwire binary ingest
// path (docs/WIRE.md) into an in-process wire.Listener — client-side
// frame building, loopback TCP (or UDP datagrams), server-side
// zero-copy parse, borrowed-key UpdateBatch — per item. These rows are
// the binary counterpart of the HTTP server/ rows: same registry, same
// summary shape, no HTTP in the path. `hhbench -floor "serverwire/..."`
// enforces the absolute serving criterion on them (see the CI perf
// job), which the relative -compare gate cannot express.
//
// The summary is unsharded: the wire path is single-writer per
// connection, and on a small box the sharded spec only adds hashing
// and striping overhead to a path that never contends. The TCP pass
// ends with an acknowledged Flush, so the timed region covers every
// item through ingest, not just through the kernel's socket buffer.

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strconv"
	"time"

	hh "repro"
	"repro/client"
	"repro/internal/benchjson"
	"repro/internal/registry"
	"repro/internal/wire"
)

// measureServerWire boots a loopback wire listener (TCP and UDP) over
// a fresh registry and times hhwire pushes from one agent. s is the
// uint64 stream shared with the other suites; keys are its decimal
// renderings, built once outside every timed region.
func measureServerWire(s []uint64, m int) []benchjson.Record {
	keys := make([]string, len(s))
	for i, x := range s {
		keys[i] = strconv.FormatUint(x, 10)
	}

	reg, err := registry.New(registry.Config{
		Summaries: map[string]hh.Spec{
			"bench": {Capacity: m},
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhbench: serverwire rows: %v\n", err)
		os.Exit(1)
	}
	l := wire.NewListener(reg, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhbench: serverwire rows: %v\n", err)
		os.Exit(1)
	}
	go l.ServeTCP(ln)
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhbench: serverwire rows: %v\n", err)
		os.Exit(1)
	}
	if uc, ok := pc.(*net.UDPConn); ok {
		uc.SetReadBuffer(4 << 20) // best effort; the kernel clamps to rmem_max
	}
	go l.ServeUDP(pc)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		l.Shutdown(ctx)
	}()

	recs := []benchjson.Record{
		timeWirePush(ln.Addr().String(), l, keys, false),
		timeWirePush(pc.LocalAddr().String(), l, keys, true),
	}
	return recs
}

// timeWirePush warms once, then times contendedPasses full-stream
// pushes through one WireConn, keeping the fastest pass. The TCP pass
// closes with an acknowledged Flush — a sync barrier, so elapsed
// includes server-side ingest of every frame. UDP has no barrier;
// instead the pass polls the listener's datagram counter until it goes
// quiet, and loss (drops) would only make the row faster, which the
// accompanying items check guards against: on loopback with the
// default socket buffers the suite's batch datagrams all arrive, and a
// pass that lost any is rerun rather than reported.
func timeWirePush(addr string, l *wire.Listener, keys []string, udp bool) benchjson.Record {
	transport := "tcp"
	dial := client.DialWire
	if udp {
		transport = "udp"
		dial = client.DialWireUDP
	}
	c, err := dial(addr, "bench")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhbench: serverwire dial: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()

	datagramsPerPass := uint64((len(keys) + jsonBatch - 1) / jsonBatch)
	// UDP flow control, bench-side only: the protocol has none (that is
	// the point of datagram mode), but a sender that bursts the whole
	// stream at a receiver sharing its CPU just measures the kernel's
	// drop rate. The bench keeps a small in-flight window against the
	// listener's own counters — the row reports the server's ingest
	// rate, with loss surfacing as a failed (and retried) pass.
	const udpWindow = 4
	delivered := func() uint64 { st := l.Stats(); return st.Datagrams + st.Drops }
	var sent uint64 = delivered()
	pass := func() {
		for off := 0; off < len(keys); off += jsonBatch {
			if err := c.PushBatch(keys[off:min(off+jsonBatch, len(keys))]); err != nil {
				fmt.Fprintf(os.Stderr, "hhbench: serverwire push: %v\n", err)
				os.Exit(1)
			}
			if udp {
				sent++
				waited := time.Duration(0)
				for sent-delivered() > udpWindow && waited < 50*time.Millisecond {
					time.Sleep(20 * time.Microsecond)
					waited += 20 * time.Microsecond
				}
				if sent-delivered() > udpWindow {
					sent = delivered() // write off kernel-dropped datagrams
				}
			}
		}
		if udp {
			return // no barrier: passDelivered polls the datagram counter
		}
		if err := c.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "hhbench: serverwire flush: %v\n", err)
			os.Exit(1)
		}
	}
	// settle waits for in-flight datagrams to land so pass boundaries
	// don't bleed into each other's counter deltas.
	settle := func() {
		if !udp {
			return
		}
		last := l.Stats()
		for {
			time.Sleep(2 * time.Millisecond)
			st := l.Stats()
			if st == last {
				return
			}
			last = st
		}
	}
	passDelivered := func(run func()) (time.Duration, bool) {
		settle()
		before := l.Stats()
		start := time.Now()
		run()
		d := time.Since(start)
		if !udp {
			return d, true
		}
		// Settle: on loopback the receiver trails the sender by at most
		// the socket buffer; give it a moment, then check delivery.
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			st := l.Stats()
			if st.Datagrams-before.Datagrams >= datagramsPerPass {
				return time.Since(start), true
			}
			if st.Drops > before.Drops {
				return d, false // lost datagrams: the pass undercounts work
			}
			time.Sleep(50 * time.Microsecond)
		}
		return d, false
	}

	pass() // warm: fill counters, steady-state both sides' scratch
	runtime.GC()
	var beforeMem, afterMem runtime.MemStats
	runtime.ReadMemStats(&beforeMem)
	var elapsed time.Duration
	measured := 0
	for attempts := 0; measured < contendedPasses && attempts < contendedPasses*4; attempts++ {
		d, ok := passDelivered(pass)
		if !ok {
			continue
		}
		if measured == 0 || d < elapsed {
			elapsed = d
		}
		measured++
	}
	runtime.ReadMemStats(&afterMem)
	if measured == 0 {
		fmt.Fprintf(os.Stderr, "hhbench: serverwire %s: no pass delivered every datagram\n", transport)
		os.Exit(1)
	}
	n := float64(len(keys))
	return benchjson.Record{
		Name:        fmt.Sprintf("serverwire/%s/spacesaving/zipf-1.1/unsharded/w1", transport),
		Algo:        hh.AlgoSpaceSaving.String(),
		Workload:    "zipf-1.1",
		Shards:      0,
		Batch:       jsonBatch,
		Items:       uint64(len(keys)),
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		ItemsPerSec: n / elapsed.Seconds(),
		AllocsPerOp: float64(afterMem.Mallocs-beforeMem.Mallocs) / (n * float64(measured)),
		BytesPerOp:  float64(afterMem.TotalAlloc-beforeMem.TotalAlloc) / (n * float64(measured)),
	}
}

// measureServedWire times hhwire TCP ingest into the registry's serving
// composition on the two shapes counted frames (docs/WIRE.md, "Counted frames") were
// built for and against: burst frames (90% in-frame repeats) into
// m-counter 8-shard SPACESAVING, and all-distinct hex keys into
// m=65536 unsharded. Each shape gets two rows: "folded" pushes through
// client.WireConn, which folds each frame's repeats into a counted
// body, and its "v1" twin writes plain wire.AppendFrame frames over a
// raw connection — so one binary shows the A/B with client and server
// sharing the process. The all-distinct rows carry the servedwire/
// prefix: eviction-bound at m=65536, they cannot meet the serverwire/
// items/s floor by design.
func measureServedWire(burst, hex []string, m int) []benchjson.Record {
	var recs []benchjson.Record
	for _, w := range []struct {
		prefix, workload string
		spec             hh.Spec
		keys             []string
	}{
		{"serverwire", "burst-1.3-dup0.9", hh.Spec{Capacity: m, Shards: 8}, burst},
		{"servedwire", "all-distinct-hex", hh.Spec{Capacity: servedDistinctM}, hex},
	} {
		for _, folded := range []bool{true, false} {
			rec := timeServedWire(w.spec, w.keys, folded)
			variant := "v1"
			if folded {
				variant = "folded"
			}
			rec.Name = fmt.Sprintf("%s/tcp/%v/%s/%s/%s", w.prefix, hh.AlgoSpaceSaving, w.workload, shardingName(w.spec.Shards, 0), variant)
			rec.Algo = hh.AlgoSpaceSaving.String()
			rec.Workload = w.workload
			rec.Shards = w.spec.Shards
			recs = append(recs, rec)
		}
	}
	return recs
}

// timeServedWire boots a fresh registry and TCP wire listener for spec,
// then times full-stream pushes of keys in jsonBatch-key frames, each
// pass closed by an acknowledged barrier: one warming pass, then
// contendedPasses timed ones, keeping the fastest.
func timeServedWire(spec hh.Spec, keys []string, folded bool) benchjson.Record {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "hhbench: served wire rows: %v\n", err)
		os.Exit(1)
	}
	reg, err := registry.New(registry.Config{Summaries: map[string]hh.Spec{"bench": spec}})
	if err != nil {
		fail(err)
	}
	l := wire.NewListener(reg, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	go l.ServeTCP(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		l.Shutdown(ctx)
	}()

	var pass func() error
	if folded {
		c, err := client.DialWire(ln.Addr().String(), "bench")
		if err != nil {
			fail(err)
		}
		defer c.Close()
		pass = func() error {
			for lo := 0; lo < len(keys); lo += jsonBatch {
				if err := c.PushBatch(keys[lo:min(lo+jsonBatch, len(keys))]); err != nil {
					return err
				}
			}
			return c.Flush()
		}
	} else {
		// The v1 twin: what a WireConn that never folds writes, built
		// per frame inside the timed region like the folded row's.
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			fail(err)
		}
		defer conn.Close()
		var body, frame []byte
		ack := make([]byte, wire.AckLen)
		pass = func() error {
			for lo := 0; lo < len(keys); lo += jsonBatch {
				body = body[:0]
				for _, k := range keys[lo:min(lo+jsonBatch, len(keys))] {
					body = registry.AppendBinaryRecord(body, k)
				}
				frame = wire.AppendFrame(frame[:0], "bench", 0, body)
				if _, err := conn.Write(frame); err != nil {
					return err
				}
			}
			if _, err := conn.Write(wire.AppendFrame(frame[:0], "bench", wire.FlagAck, nil)); err != nil {
				return err
			}
			if _, err := io.ReadFull(conn, ack); err != nil {
				return err
			}
			_, err := wire.ParseAck(ack)
			return err
		}
	}

	if err := pass(); err != nil { // warm: fill counters, grow both sides' scratch
		fail(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var elapsed time.Duration
	for i := 0; i < contendedPasses; i++ {
		start := time.Now()
		if err := pass(); err != nil {
			fail(err)
		}
		if d := time.Since(start); i == 0 || d < elapsed {
			elapsed = d
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(keys))
	return benchjson.Record{
		Batch:       jsonBatch,
		Items:       uint64(len(keys)),
		NsPerOp:     float64(elapsed.Nanoseconds()) / n,
		ItemsPerSec: n / elapsed.Seconds(),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / (n * contendedPasses),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / (n * contendedPasses),
	}
}
