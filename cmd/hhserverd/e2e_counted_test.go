package main_test

// End-to-end tests of counted hhwire frames (docs/WIRE.md, "Counted frames") against
// the real hhserverd binary: WireConn folds every duplicate-heavy frame
// into a counted body, and the daemon's answers must match an exact
// oracle at every acknowledged barrier; malformed counted frames kill
// the connection without moving mass; and a kill -9 with counted
// records in the WAL tail recovers at least the acknowledged mass.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/client"
	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/wire"
)

// burstKeys renders a duplicate-heavy burst stream (90% of each
// 512-key batch repeats an in-batch key) as string keys.
func burstKeys(n uint64, seed uint64) []string {
	var keys []string
	for _, x := range stream.Burst(5000, 1.3, n, 512, 0.9, seed) {
		keys = append(keys, fmt.Sprintf("b%d", x))
	}
	return keys
}

// checkOracle compares the served summary with the exact counts: N
// equal, every served bound bracketing the truth.
func checkOracle(t *testing.T, hc *client.Client, exact map[string]float64, n int) {
	t.Helper()
	top, err := hc.Top(context.Background(), 20)
	if err != nil {
		t.Fatalf("Top: %v", err)
	}
	if top.N != float64(n) {
		t.Fatalf("served N = %v, want %d", top.N, n)
	}
	for _, r := range top.Results {
		if f := exact[r.Item]; f < r.Lo || f > r.Hi {
			t.Errorf("%q: true %v outside served bounds [%v, %v]", r.Item, f, r.Lo, r.Hi)
		}
	}
}

func TestE2EWireCountedOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test skipped in -short mode")
	}
	s := bootServerd(t, `{"summaries": {"wire": {"capacity": 256}, "sharded": {"capacity": 256, "shards": 4}}}`,
		"-wire-addr", "127.0.0.1:0")
	waitHealthy(t, s.base)

	keys := burstKeys(30_000, 5)
	for _, name := range []string{"wire", "sharded"} {
		hc := client.New(s.base, name)
		c, err := client.DialWire(s.wireAddr, name, client.WithFlushBytes(2048))
		if err != nil {
			t.Fatalf("DialWire: %v", err)
		}
		exact := map[string]float64{}
		sent := 0
		for lo := 0; lo < len(keys); lo += 3000 {
			part := keys[lo:min(lo+3000, len(keys))]
			// Alternate the push shapes: Push (auto-framed at 2 KiB) and
			// PushBatch (one 512-key frame per call).
			if lo/3000%2 == 0 {
				for _, k := range part {
					if err := c.Push(k); err != nil {
						t.Fatalf("Push: %v", err)
					}
				}
			} else {
				for b := 0; b < len(part); b += 512 {
					if err := c.PushBatch(part[b:min(b+512, len(part))]); err != nil {
						t.Fatalf("PushBatch: %v", err)
					}
				}
			}
			for _, k := range part {
				exact[k]++
			}
			sent += len(part)
			// The acknowledged barrier: everything above is applied.
			if err := c.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			checkOracle(t, hc, exact, sent)
		}
		c.Close()

		// The ingest metrics count occurrences, not pairs.
		resp, err := http.Get(s.base + "/metricsz")
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Summaries map[string]registry.Stats `json:"summaries"`
		}
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Summaries[name].IngestedItems; got != uint64(sent) {
			t.Errorf("%s: /metricsz ingested_items = %d, want %d occurrences", name, got, sent)
		}
	}

	// Malformed counted frames: each kills its connection and moves
	// nothing.
	before := httpN(t, s.base)
	bad := map[string][]byte{
		"truncated key":   wire.AppendFrame(nil, "wire", wire.FlagCounted, []byte{5, 'a', 'b'}),
		"truncated count": wire.AppendFrame(nil, "wire", wire.FlagCounted, []byte{1, 'a'}),
		"count 0":         wire.AppendFrame(nil, "wire", wire.FlagCounted, []byte{1, 'a', 0}),
		"count >= 2^32":   wire.AppendFrame(nil, "wire", wire.FlagCounted, binary.AppendUvarint([]byte{1, 'a'}, 1<<32)),
		"sum over cap": wire.AppendFrame(nil, "wire", wire.FlagCounted,
			registry.AppendCountedRecord(registry.AppendCountedRecord(nil, "a", registry.DefaultMaxBodyBytes), "b", 1)),
		"good pair, then torn": wire.AppendFrame(nil, "wire", wire.FlagCounted,
			append(registry.AppendCountedRecord(nil, "ok", 7), 3, 'x')),
	}
	for name, b := range bad {
		conn, err := net.Dial("tcp", s.wireAddr)
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		if _, err := conn.Write(b); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Errorf("%s: connection survived a malformed counted frame", name)
		}
		conn.Close()
		if after := httpN(t, s.base); after != before {
			t.Fatalf("%s: malformed counted frame moved mass %v -> %v", name, before, after)
		}
	}
}

func TestCrashKillNineCountedTail(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test skipped in -short mode")
	}
	dataDir := t.TempDir()
	// No periodic snapshot inside the test: every record stays in the
	// WAL tail the restart replays.
	cfg := fmt.Sprintf(`{
		"summaries": {"crash": {"capacity": 256, "shards": 4}},
		"durability": {"dir": %q, "fsync": "always", "snapshot_interval": "1h"}
	}`, dataDir)
	s := bootServerd(t, cfg, "-wire-addr", "127.0.0.1:0")
	waitHealthy(t, s.base)

	const batch = 512
	const total = 80 * batch
	keys := burstKeys(total, 31)
	c, err := client.DialWire(s.wireAddr, "crash")
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	defer c.Close()
	ackedThrough := 40 * batch
	for lo := 0; lo < ackedThrough; lo += batch {
		if err := c.PushBatch(keys[lo : lo+batch]); err != nil {
			t.Fatalf("PushBatch: %v", err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	go func() {
		for lo := ackedThrough; lo < total; lo += batch {
			if c.PushBatch(keys[lo:lo+batch]) != nil {
				return
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()

	s2 := bootServerd(t, cfg, "-wire-addr", "127.0.0.1:0")
	waitHealthy(t, s2.base)
	waitStdout(t, s2, `hhserverd recovered "crash"`)
	top, err := client.New(s2.base, "crash").Top(context.Background(), 20)
	if err != nil {
		t.Fatalf("Top after recovery: %v", err)
	}
	n := int(top.N)
	if float64(n) != top.N || n%batch != 0 {
		t.Errorf("recovered N = %v, not a whole number of %d-key frames", top.N, batch)
	}
	if n < ackedThrough || n > total {
		t.Fatalf("recovered N = %d outside [acked %d, sent %d]", n, ackedThrough, total)
	}
	// The replayed tail holds counted records: it reports the
	// occurrences they carry, all of the recovered mass.
	waitStdout(t, s2, fmt.Sprintf("batches (%d items)", n))
	exact := map[string]float64{}
	for _, k := range keys[:n] {
		exact[k]++
	}
	for _, r := range top.Results {
		if f := exact[r.Item]; f < r.Lo || f > r.Hi {
			t.Errorf("recovered %q: true %v outside served bounds [%v, %v]", r.Item, f, r.Lo, r.Hi)
		}
	}
}
