package registry

// White-box replay-idempotence property: applying any WAL record twice
// (or any already-covered record) through replay.applyRecord leaves the
// registry structurally unchanged. The black-box tests cover the same
// property at the daemon level; this one pins the mechanism — the
// per-summary sequence gate — directly.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"testing"

	hh "repro"
	"repro/internal/persist"
	"repro/internal/testutil"
)

func batchBody(keys ...string) []byte {
	var b []byte
	for _, k := range keys {
		b = binary.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
	}
	return b
}

func newDurableRegistry(t *testing.T, summaries map[string]hh.Spec) *Registry {
	t.Helper()
	r, err := New(Config{
		Durability: &hh.DurabilitySpec{Dir: t.TempDir(), SnapshotInterval: "1h", Fsync: hh.FsyncRotate},
		Summaries:  summaries,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Halt() })
	return r
}

func TestApplyRecordIdempotent(t *testing.T) {
	r := newDurableRegistry(t, map[string]hh.Spec{"s": {Capacity: 64}})
	rp := &replay{r: r}
	e, _ := r.Get("s")

	rec := persist.Record{Kind: persist.KindBatch, Seq: 1, Name: []byte("s"), Body: batchBody("a", "b", "a")}
	for i := 0; i < 3; i++ {
		if err := rp.applyRecord(rec); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if n := e.live.N(); n != 3 {
		t.Fatalf("after triple apply of seq 1: N = %.0f, want 3", n)
	}
	if r.recovery.Deduped != 2 || r.recovery.ReplayedBatches != 1 {
		t.Fatalf("recovery counters = %+v, want 1 applied, 2 deduped", r.recovery)
	}
	if e.walSeq.Load() != 1 {
		t.Fatalf("walSeq = %d, want 1", e.walSeq.Load())
	}

	// A record at or below the pin (a snapshot already covering it) is
	// skipped even when it was never replayed in this process.
	e.walSeq.Store(10)
	if err := rp.applyRecord(persist.Record{Kind: persist.KindBatch, Seq: 5, Name: []byte("s"), Body: batchBody("z")}); err != nil {
		t.Fatal(err)
	}
	if n := e.live.N(); n != 3 {
		t.Fatalf("covered record applied: N = %.0f, want 3", n)
	}
	// A record past the pin applies and advances it.
	if err := rp.applyRecord(persist.Record{Kind: persist.KindBatch, Seq: 11, Name: []byte("s"), Body: batchBody("z")}); err != nil {
		t.Fatal(err)
	}
	if n, seq := e.live.N(), e.walSeq.Load(); n != 4 || seq != 11 {
		t.Fatalf("after seq-11 apply: N = %.0f, seq = %d; want 4, 11", n, seq)
	}
}

// TestApplyRecordCountedIdempotent: counted records take the batch
// records' sequence gate — a repeated or covered record is a no-op, a
// record past the pin applies its occurrences — and route and reject
// like them.
func TestApplyRecordCountedIdempotent(t *testing.T) {
	r := newDurableRegistry(t, map[string]hh.Spec{"s": {Capacity: 64}})
	rp := &replay{r: r}
	e, _ := r.Get("s")
	body := AppendCountedRecord(AppendCountedRecord(nil, "a", 3), "b", 2)
	rec := persist.Record{Kind: persist.KindCounted, Seq: 1, Name: []byte("s"), Body: body}
	for i := 0; i < 3; i++ {
		if err := rp.applyRecord(rec); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	if n := e.live.N(); n != 5 {
		t.Fatalf("after triple apply of seq 1: N = %.0f, want 5", n)
	}
	if r.recovery.Deduped != 2 || r.recovery.ReplayedBatches != 1 || r.recovery.ReplayedItems != 5 {
		t.Fatalf("recovery counters = %+v, want 1 applied (5 items), 2 deduped", r.recovery)
	}
	e.walSeq.Store(10)
	if err := rp.applyRecord(persist.Record{Kind: persist.KindCounted, Seq: 9, Name: []byte("s"), Body: body}); err != nil {
		t.Fatal(err)
	}
	if err := rp.applyRecord(persist.Record{Kind: persist.KindCounted, Seq: 11, Name: []byte("s"), Body: body}); err != nil {
		t.Fatal(err)
	}
	if n, seq := e.live.N(), e.walSeq.Load(); n != 10 || seq != 11 {
		t.Fatalf("after covered seq 9 and new seq 11: N = %.0f, seq = %d; want 10, 11", n, seq)
	}
	if err := rp.applyRecord(persist.Record{Kind: persist.KindCounted, Seq: 1, Name: []byte("gone"), Body: body}); err != nil || r.recovery.Unroutable != 1 {
		t.Fatalf("unroutable counted record: %v, Unroutable = %d", err, r.recovery.Unroutable)
	}
	if err := rp.applyRecord(persist.Record{Kind: persist.KindCounted, Seq: 12, Name: []byte("s"), Body: []byte{1, 'a', 0}}); err == nil {
		t.Fatal("malformed counted body accepted")
	}
}

func TestApplyRecordBlobIdempotent(t *testing.T) {
	r := newDurableRegistry(t, map[string]hh.Spec{"s": {Capacity: 64}})
	rp := &replay{r: r}
	e, _ := r.Get("s")
	remote := hh.New[string](hh.WithCapacity(64))
	remote.UpdateBatch([]string{"x", "x", "y"})
	var buf bytes.Buffer
	if err := remote.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	rec := persist.Record{Kind: persist.KindBlob, Seq: 1, Name: []byte("s"), Body: buf.Bytes()}
	for i := 0; i < 2; i++ {
		if err := rp.applyRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	if mass := e.recoveredMass(); mass != 3 {
		t.Fatalf("after double blob apply: mass = %.0f, want 3", mass)
	}
	if r.recovery.ReplayedBlobs != 1 || r.recovery.Deduped != 1 {
		t.Fatalf("recovery counters = %+v, want 1 blob, 1 deduped", r.recovery)
	}
}

func TestApplyRecordRouting(t *testing.T) {
	r := newDurableRegistry(t, map[string]hh.Spec{
		"s":   {Capacity: 64},
		"eph": {Capacity: 64, Ephemeral: true},
	})
	rp := &replay{r: r}
	// A record for a name with no durable summary (removed stanza, or one
	// flipped ephemeral between lives) is counted and dropped, not fatal:
	// recovery must finish with whatever state is still routable.
	for _, name := range []string{"gone", "eph"} {
		if err := rp.applyRecord(persist.Record{Kind: persist.KindBatch, Seq: 1, Name: []byte(name), Body: batchBody("a")}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if r.recovery.Unroutable != 2 {
		t.Fatalf("Unroutable = %d, want 2", r.recovery.Unroutable)
	}
	// A create record for a new name builds the summary; a duplicate is
	// skipped.
	spec := []byte(`{"capacity":32}`)
	for i := 0; i < 2; i++ {
		if err := rp.applyRecord(persist.Record{Kind: persist.KindCreate, Name: []byte("put-at-runtime"), Body: spec}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := r.Get("put-at-runtime"); !ok {
		t.Fatal("create record did not build the summary")
	}
	if r.recovery.SkippedCreates != 1 {
		t.Fatalf("SkippedCreates = %d, want 1", r.recovery.SkippedCreates)
	}
	// Corrupt bodies are errors (CRC passed, so this is real damage).
	if err := rp.applyRecord(persist.Record{Kind: persist.KindCreate, Name: []byte("bad"), Body: []byte("{")}); err == nil {
		t.Fatal("malformed create body accepted")
	}
	if err := rp.applyRecord(persist.Record{Kind: persist.KindBatch, Seq: 1, Name: []byte("s"), Body: []byte{0xFF}}); err == nil {
		t.Fatal("malformed batch body accepted")
	}
}

// TestReplayZeroAllocs pins the replay memory contract
// (docs/DURABILITY.md §5.2): once a pass has decoded one batch and one
// counted record, the next of each decodes into the pass's reused
// scratch and applies without a single allocation — on the sharded and
// the unsharded composition.
func TestReplayZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; allocation accounting is meaningless under -race")
	}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = strconv.Itoa(i % 700)
	}
	batch := batchBody(keys...)
	var counted []byte
	for i := 0; i < 500; i++ {
		counted = AppendCountedRecord(counted, strconv.Itoa(i%400), uint32(1+i%4))
	}
	name := []byte("s")
	for _, shards := range []int{0, 8} {
		r := newDurableRegistry(t, map[string]hh.Spec{"s": {Capacity: 1024, Shards: shards}})
		rp := &replay{r: r}
		var seq uint64
		apply := func(kind byte, body []byte) {
			seq++
			if err := rp.applyRecord(persist.Record{Kind: kind, Seq: seq, Name: name, Body: body}); err != nil {
				t.Fatal(err)
			}
		}
		apply(persist.KindBatch, batch) // warm: grow the scratch, track the working set
		apply(persist.KindCounted, counted)
		if avg := testing.AllocsPerRun(10, func() {
			apply(persist.KindBatch, batch)
			apply(persist.KindCounted, counted)
		}); avg != 0 {
			t.Errorf("shards=%d: %.2f allocs per replayed batch + counted record, want 0", shards, avg)
		}
	}
}

// TestSnapshotCoversConcurrentRebuild is the regression test for a lost
// batch: a snapshot taken while a query's rebuild of the live summary's
// read snapshot was in flight used to encode the previous read
// snapshot, one batch short, under a WAL pin that already covered the
// batch — so pruning dropped it from the next boot. Every committed
// blob must carry exactly the ingested mass.
func TestSnapshotCoversConcurrentRebuild(t *testing.T) {
	const m, batch, rounds = 4096, 512, 200
	r := newDurableRegistry(t, map[string]hh.Spec{"s": {Capacity: m}})
	e, _ := r.Get("s")
	keys := make([]string, batch)
	short := 0
	for round := 0; round < rounds; round++ {
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", (round*batch+i)%(2*m))
		}
		if err := e.IngestBatch(keys); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if v, err := e.View(); err == nil {
				v.Top(10)
			}
		}()
		if _, err := r.Snapshot(); err != nil {
			t.Fatal(err)
		}
		<-done
		_, _, blobs, err := r.store.LoadSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		got, err := hh.Decode[string](bytes.NewReader(blobs["s"]))
		if err != nil {
			t.Fatal(err)
		}
		if want := float64((round + 1) * batch); got.N() != want {
			short++
			t.Errorf("round %d: committed blob N = %v, want %v", round, got.N(), want)
		}
	}
	if short > 0 {
		t.Errorf("%d of %d snapshots lost acknowledged batches", short, rounds)
	}
}
