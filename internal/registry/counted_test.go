package registry_test

// Counted-body tests: the parser's validation (docs/WIRE.md, "Counted frames"), the
// counted ingest path against the expanded v1 batch, and counted WAL
// records through recovery.

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	hh "repro"
	"repro/internal/registry"
	"repro/internal/testutil"
)

// countedBody encodes (key, count) pairs as a counted body.
func countedBody(pairs ...any) []byte {
	var b []byte
	for i := 0; i < len(pairs); i += 2 {
		b = registry.AppendCountedRecord(b, pairs[i].(string), pairs[i+1].(uint32))
	}
	return b
}

// foldKeys groups keys into counted pairs, first-occurrence order.
func foldKeys(keys []string) ([]string, []uint32) {
	idx := map[string]int{}
	var ks []string
	var cs []uint32
	for _, k := range keys {
		if i, ok := idx[k]; ok {
			cs[i]++
			continue
		}
		idx[k] = len(ks)
		ks = append(ks, k)
		cs = append(cs, 1)
	}
	return ks, cs
}

// TestCountedParseRejects: every malformed counted body is an error
// that leaves the batch empty, so even a caller that ingests it anyway
// moves N by nothing; the valid body parses to its pairs and re-encodes
// byte for byte.
func TestCountedParseRejects(t *testing.T) {
	reg, err := registry.New(registry.Config{Summaries: map[string]hh.Spec{"s": {Capacity: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Get("s")
	good := countedBody("a", uint32(3), "bb", uint32(1))
	overflowCount := binary.AppendUvarint(append([]byte{1}, 'k'), math.MaxUint32+1)
	for name, body := range map[string][]byte{
		"truncated key":        {3, 'a', 'b'},
		"truncated key length": {0x80},
		"truncated count":      {1, 'a'},
		"truncated count byte": {1, 'a', 0x80},
		"count 0":              {1, 'a', 0},
		"count >= 2^32":        overflowCount,
		"sum over bound":       countedBody("a", uint32(60), "b", uint32(41)),
		"non-minimal length":   {0x81, 0x00, 'a', 1},
		"non-minimal count":    {1, 'a', 0x81, 0x00},
		"good then torn":       append(slices.Clone(good), 2, 'x'),
		"key over MaxKeyLen":   binary.AppendUvarint(nil, registry.MaxKeyLen+1),
	} {
		var b registry.CountedBatch
		if err := b.Parse(body, 100); err == nil {
			t.Errorf("%s: accepted %x", name, body)
			continue
		}
		if len(b.Keys) != 0 || len(b.Counts) != 0 || b.Items != 0 {
			t.Errorf("%s: rejected body left pairs %v %v, items %d", name, b.Keys, b.Counts, b.Items)
		}
		if err := e.IngestCounted(&b); err != nil {
			t.Fatal(err)
		}
		if n := e.Live().N(); n != 0 {
			t.Fatalf("%s: rejected body moved N to %v", name, n)
		}
	}

	var b registry.CountedBatch
	if err := b.Parse(good, 100); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Keys, []string{"a", "bb"}) || !slices.Equal(b.Counts, []uint32{3, 1}) || b.Items != 4 {
		t.Fatalf("parsed %v %v items %d", b.Keys, b.Counts, b.Items)
	}
	var re []byte
	for i, k := range b.Keys {
		re = registry.AppendCountedRecord(re, k, b.Counts[i])
	}
	if !bytes.Equal(re, good) {
		t.Fatalf("re-encoded %x, want %x", re, good)
	}
	// The default bound is the body-byte cap; an empty body is valid.
	if err := b.Parse(countedBody("a", uint32(registry.DefaultMaxBodyBytes+1)), 0); err == nil {
		t.Error("sum past the default bound accepted")
	}
	if err := b.Parse(nil, 0); err != nil || b.Items != 0 {
		t.Errorf("empty body: %v, items %d", err, b.Items)
	}
}

// TestCountedIngestMatchesExpanded: on the registry's sharded
// composition a counted body — duplicates inside it included — leaves
// exactly the state of the expanded v1 batch, and both advance the
// ingest metrics by occurrences.
func TestCountedIngestMatchesExpanded(t *testing.T) {
	reg, err := registry.New(registry.Config{Summaries: map[string]hh.Spec{
		"v1":      {Capacity: 64, Shards: 4},
		"counted": {Capacity: 64, Shards: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := reg.Get("v1")
	ct, _ := reg.Get("counted")
	keys := zipfKeys(300, 20_000, 3)
	var b registry.CountedBatch
	for lo := 0; lo < len(keys); lo += 1000 {
		part := keys[lo:min(lo+1000, len(keys))]
		if err := v1.IngestBatch(part); err != nil {
			t.Fatal(err)
		}
		ks, cs := foldKeys(part)
		// Split the last group's count into a repeated trailing pair: a
		// body a conforming client never sends, which still must sum.
		var body []byte
		for i, k := range ks {
			c := cs[i]
			if i == len(ks)-1 && c > 1 {
				body = registry.AppendCountedRecord(body, k, c-1)
				c = 1
			}
			body = registry.AppendCountedRecord(body, k, c)
		}
		if err := b.Parse(body, 0); err != nil {
			t.Fatal(err)
		}
		if err := ct.IngestCounted(&b); err != nil {
			t.Fatal(err)
		}
	}
	if a, c := v1.Live().N(), ct.Live().N(); a != c || a != float64(len(keys)) {
		t.Fatalf("N: v1 %v, counted %v, want %d", a, c, len(keys))
	}
	for _, k := range keys[:500] {
		alo, ahi := v1.Live().EstimateBounds(k)
		clo, chi := ct.Live().EstimateBounds(k)
		if alo != clo || ahi != chi {
			t.Fatalf("bounds(%q): v1 [%v,%v], counted [%v,%v]", k, alo, ahi, clo, chi)
		}
	}
	if a, c := v1.ReadStats().IngestedItems, ct.ReadStats().IngestedItems; a != c {
		t.Fatalf("ingested items: v1 %d, counted %d", a, c)
	}
}

// TestDurableCountedRecovery: counted records replay through the wire's
// parser and apply path with the batch records' sequence dedup. From
// the WAL alone, recovery reproduces the pre-crash state exactly; over
// a mid-stream snapshot it replays just the tail, twice without
// change, with N exact and certain bounds bracketing the exact counts.
func TestDurableCountedRecovery(t *testing.T) {
	for _, snapAt := range []int{-1, 5} {
		dir := t.TempDir()
		cfg := durableConfig(dir, map[string]hh.Spec{"words": {Capacity: 128, Shards: 4}})
		reg, err := registry.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := reg.Get("words")
		keys := zipfKeys(500, 20_000, 7)
		exact := map[string]float64{}
		for _, k := range keys {
			exact[k]++
		}
		var b registry.CountedBatch
		tailItems := 0
		for i, lo := 0, 0; lo < len(keys); i, lo = i+1, lo+1000 {
			part := keys[lo:min(lo+1000, len(keys))]
			if i%3 == 0 {
				if err := e.IngestBatch(part); err != nil {
					t.Fatal(err)
				}
			} else {
				ks, cs := foldKeys(part)
				var body []byte
				for j, k := range ks {
					body = registry.AppendCountedRecord(body, k, cs[j])
				}
				if err := b.Parse(body, 0); err != nil {
					t.Fatal(err)
				}
				if err := e.IngestCounted(&b); err != nil {
					t.Fatal(err)
				}
			}
			if i == snapAt {
				if _, err := reg.Snapshot(); err != nil {
					t.Fatal(err)
				}
			} else if i > snapAt {
				tailItems += len(part)
			}
		}
		want := e.Live().Top(50)
		if err := reg.Halt(); err != nil {
			t.Fatal(err)
		}
		var first []hh.WeightedEntry[string]
		for boot := 0; boot < 2; boot++ { // the second boot replays the same tail again
			reg2, err := registry.New(cfg)
			if err != nil {
				t.Fatalf("snapshot at %d, boot %d: %v", snapAt, boot, err)
			}
			if got := reg2.Recovery().ReplayedItems; got != tailItems {
				t.Errorf("snapshot at %d, boot %d: replayed %d items, want %d", snapAt, boot, got, tailItems)
			}
			e2, _ := reg2.Get("words")
			v, err := e2.View()
			if err != nil {
				t.Fatal(err)
			}
			if v.N() != float64(len(keys)) {
				t.Errorf("snapshot at %d, boot %d: N %v, want %d", snapAt, boot, v.N(), len(keys))
			}
			got := v.Top(50)
			for _, we := range got {
				if lo, hi := v.EstimateBounds(we.Item); lo > exact[we.Item] || exact[we.Item] > hi {
					t.Errorf("snapshot at %d: bounds of %q [%v, %v] exclude exact %v", snapAt, we.Item, lo, hi, exact[we.Item])
				}
			}
			if snapAt < 0 && !slices.Equal(got, want) {
				t.Fatalf("WAL-only recovery: top %v, want %v", got, want)
			}
			if boot == 1 && !slices.Equal(got, first) {
				t.Fatalf("snapshot at %d: double replay changed top %v -> %v", snapAt, first, got)
			}
			first = got
			if err := reg2.Halt(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDurableCountedIngestZeroAllocs pins durable counted ingest — WAL
// append of the verbatim body plus the grouped apply — at zero
// allocations per op at steady state, like durable IngestBatch.
func TestDurableCountedIngestZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; allocation accounting is meaningless under -race")
	}
	for _, shards := range []int{0, 8} {
		reg, err := registry.New(durableConfig(t.TempDir(), map[string]hh.Spec{
			"words": {Capacity: 1024, Shards: shards},
		}))
		if err != nil {
			t.Fatal(err)
		}
		e, _ := reg.Get("words")
		ks, cs := foldKeys(zipfKeys(400, 4096, 5))
		var body []byte
		for i, k := range ks {
			body = registry.AppendCountedRecord(body, k, cs[i])
		}
		var b registry.CountedBatch
		ingest := func() {
			if err := b.Parse(body, 0); err != nil {
				t.Fatal(err)
			}
			if err := e.IngestCounted(&b); err != nil {
				t.Fatal(err)
			}
		}
		ingest() // warm: track the working set, grow the WAL and parse scratch
		if avg := testing.AllocsPerRun(10, ingest); avg != 0 {
			t.Errorf("shards=%d: durable counted ingest: %.4f allocs per run at steady state, want 0", shards, avg)
		}
		reg.Halt()
	}
}

// TestFailedNewClosesStore: a boot that fails after the store opened —
// here the config-vs-recovered spec conflict, after recovery has
// already logged its create records into a fresh WAL segment — must
// close the store: no file under the data dir may stay open.
func TestFailedNewClosesStore(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count open files")
	}
	dir := t.TempDir()
	openUnder := func() int {
		ents, _ := os.ReadDir("/proc/self/fd")
		n := 0
		for _, de := range ents {
			if target, err := os.Readlink(filepath.Join("/proc/self/fd", de.Name())); err == nil && strings.HasPrefix(target, dir) {
				n++
			}
		}
		return n
	}
	reg, err := registry.New(durableConfig(dir, map[string]hh.Spec{"words": {Capacity: 128}}))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Get("words")
	if err := e.IngestBatch([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Halt(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		cfg := durableConfig(dir, map[string]hh.Spec{"words": {Capacity: 256}})
		cfg.Durability.Fsync = hh.FsyncInterval
		if _, err := registry.New(cfg); err == nil {
			t.Fatal("conflicting stanza accepted")
		}
	}
	if n := openUnder(); n != 0 {
		t.Fatalf("%d files under the data dir still open after failed boots", n)
	}
}
