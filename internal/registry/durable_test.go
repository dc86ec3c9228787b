package registry_test

// Durability tests: recovery round-trips through snapshot + WAL tail,
// replay idempotence at the daemon level, the ephemeral/sketch
// exclusions, and the config-vs-recovered-state conflict check. The
// byte-level format tests live in internal/persist; these drive the
// registry's recovery semantics over real data directories.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	hh "repro"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/testutil"
)

func durableConfig(dir string, summaries map[string]hh.Spec) registry.Config {
	return registry.Config{
		// A long snapshot interval keeps the periodic loop out of the
		// tests' way: every snapshot below is explicit.
		Durability: &hh.DurabilitySpec{Dir: dir, SnapshotInterval: "1h", Fsync: hh.FsyncRotate},
		Summaries:  summaries,
	}
}

func TestDurableRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, map[string]hh.Spec{"words": {Capacity: 256, Shards: 4}})
	reg, err := registry.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e, _ := reg.Get("words")
	keys := zipfKeys(2000, 30_000, 11)
	exact := make(map[string]float64, 2000)
	for _, k := range keys {
		exact[k]++
	}
	const batch = 512
	half := (len(keys) / (2 * batch)) * batch
	tailBatches, tailItems := 0, 0
	for lo := 0; lo < len(keys); lo += batch {
		part := keys[lo:min(lo+batch, len(keys))]
		if err := e.IngestBatch(part); err != nil {
			t.Fatalf("IngestBatch: %v", err)
		}
		if lo >= half {
			tailBatches++
			tailItems += len(part)
		}
		if lo+batch == half {
			// Snapshot mid-stream: recovery must stitch the blob and the
			// replayed tail back into exactly the full stream's state.
			if rep, err := reg.Snapshot(); err != nil || rep.Skipped {
				t.Fatalf("Snapshot: %+v, %v", rep, err)
			}
		}
	}
	preStats := e.ReadStats()
	if !preStats.Durable || preStats.WALSeq == 0 {
		t.Fatalf("pre-crash stats = %+v, want durable with advancing wal_seq", preStats)
	}
	// Halt: flush + close with NO final snapshot — the controlled stand-in
	// for a crash (minus the torn tail, which the persist tests cover).
	if err := reg.Halt(); err != nil {
		t.Fatalf("Halt: %v", err)
	}

	check := func(reg *registry.Registry, wantFromSnapshot bool, wantReplayedBatches int) {
		t.Helper()
		rep := reg.Recovery()
		if !rep.Enabled || rep.Snapshot == "" {
			t.Fatalf("recovery = %+v, want enabled with a committed snapshot", rep)
		}
		if len(rep.Summaries) != 1 {
			t.Fatalf("recovered %d summaries, want 1", len(rep.Summaries))
		}
		s := rep.Summaries[0]
		if s.Name != "words" || s.FromSnapshot != wantFromSnapshot || s.Mass != float64(len(keys)) {
			t.Fatalf("recovered summary = %+v, want words, fromSnapshot=%v, mass %d", s, wantFromSnapshot, len(keys))
		}
		if wantReplayedBatches >= 0 && rep.ReplayedBatches != wantReplayedBatches {
			t.Fatalf("replayed %d batches, want %d (report %+v)", rep.ReplayedBatches, wantReplayedBatches, rep)
		}
		e, ok := reg.Get("words")
		if !ok {
			t.Fatal("words missing after recovery")
		}
		v, err := e.View()
		if err != nil {
			t.Fatalf("View: %v", err)
		}
		if v.N() != float64(len(keys)) {
			t.Fatalf("recovered N = %.0f, want %d", v.N(), len(keys))
		}
		if _, ok := v.Guarantee(); !ok {
			t.Fatal("recovered view carries no tail guarantee")
		}
		// Bound soundness against the exact oracle: every certain bound
		// the recovered summary serves must still bracket the true count.
		top := v.Top(20)
		if len(top) == 0 {
			t.Fatal("recovered view serves no counters")
		}
		for _, we := range top {
			lo, hi := v.EstimateBounds(we.Item)
			if ex := exact[we.Item]; lo > ex || ex > hi {
				t.Errorf("recovered bounds for %q: [%.0f, %.0f] exclude exact %.0f", we.Item, lo, hi, ex)
			}
		}
		// HH completeness: every phi-heavy item of the exact stream must
		// appear in the recovered heavy-hitter set.
		const phi = 0.02
		hhSet := make(map[string]bool)
		for _, res := range v.HeavyHitters(phi) {
			hhSet[res.Item] = true
		}
		for k, ex := range exact {
			if ex > phi*float64(len(keys)) && !hhSet[k] {
				t.Errorf("exact heavy hitter %q (count %.0f) missing from the recovered set", k, ex)
			}
		}
		st := e.ReadStats()
		if !st.Durable || st.WALSeq != rep.Summaries[0].Seq || st.RestoredInputs == 0 {
			t.Errorf("recovered stats = %+v, want durable, wal_seq %d, restored inputs", st, rep.Summaries[0].Seq)
		}
	}

	// Boot 2: snapshot + WAL tail.
	reg2, err := registry.New(cfg)
	if err != nil {
		t.Fatalf("recovery New: %v", err)
	}
	check(reg2, true, tailBatches)
	if got := reg2.Recovery().ReplayedItems; got != tailItems {
		t.Fatalf("replayed %d items, want %d", got, tailItems)
	}
	seq2 := reg2.Recovery().Summaries[0].Seq
	if err := reg2.Halt(); err != nil {
		t.Fatalf("Halt: %v", err)
	}

	// Boot 3 replays the SAME tail again (boot 2 wrote no snapshot):
	// daemon-level double replay must change nothing.
	reg3, err := registry.New(cfg)
	if err != nil {
		t.Fatalf("second recovery New: %v", err)
	}
	check(reg3, true, tailBatches)
	if got := reg3.Recovery().Summaries[0].Seq; got != seq2 {
		t.Fatalf("double replay moved seq %d -> %d", seq2, got)
	}
	// Boot 2 and 3 each logged a create record for the recovered name;
	// replay must have skipped it, not grown the registry.
	if reg3.Recovery().SkippedCreates == 0 {
		t.Error("expected replayed create records to be skipped as duplicates")
	}
	// Graceful close: final snapshot, so the next boot needs no tail.
	if err := reg3.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	reg4, err := registry.New(cfg)
	if err != nil {
		t.Fatalf("post-drain New: %v", err)
	}
	defer reg4.Halt()
	check(reg4, true, 0)
	if rep := reg4.Recovery(); rep.ReplayedItems != 0 || rep.ReplayedBlobs != 0 {
		t.Fatalf("post-drain recovery replayed work: %+v", rep)
	}
}

func TestDurableBlobRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, map[string]hh.Spec{"words": {Capacity: 128}})
	reg, err := registry.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Get("words")
	if err := e.IngestBatch([]string{"x", "y", "x"}); err != nil {
		t.Fatal(err)
	}
	// A remote agent's pushed blob must be WAL-logged verbatim and
	// survive the restart with its Theorem 11 metadata.
	remote := hh.New[string](hh.WithCapacity(128))
	remote.UpdateBatch([]string{"a", "b", "a", "a"})
	var blob bytes.Buffer
	if err := remote.Encode(&blob); err != nil {
		t.Fatal(err)
	}
	mass, err := e.AbsorbBlob(&blob)
	if err != nil || mass != 4 {
		t.Fatalf("AbsorbBlob = %v, %v; want mass 4", mass, err)
	}
	if err := reg.Halt(); err != nil {
		t.Fatal(err)
	}

	reg2, err := registry.New(cfg)
	if err != nil {
		t.Fatalf("recovery New: %v", err)
	}
	defer reg2.Halt()
	rep := reg2.Recovery()
	if rep.ReplayedBlobs != 1 || rep.ReplayedBatches != 1 {
		t.Fatalf("recovery = %+v, want 1 replayed blob + 1 batch", rep)
	}
	e2, _ := reg2.Get("words")
	v, err := e2.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != 7 {
		t.Fatalf("recovered N = %.0f, want 7", v.N())
	}
	if est := v.Estimate("a"); est < 3 {
		t.Fatalf("recovered estimate for pushed key 'a' = %.0f, want >= 3", est)
	}
}

// TestDurableExclusions: ephemeral stanzas and sketch-backed summaries
// are served but never persisted — they restart empty, by contract.
func TestDurableExclusions(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir, map[string]hh.Spec{
		"kept":   {Capacity: 64},
		"eph":    {Capacity: 64, Ephemeral: true},
		"sketch": {Algorithm: "countmin", Capacity: 64},
	})
	reg, err := registry.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"kept", "eph", "sketch"} {
		e, _ := reg.Get(name)
		if err := e.IngestBatch([]string{"k1", "k2", "k1"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if s, _ := reg.Get("eph"); s.ReadStats().Durable {
		t.Error("ephemeral summary reports durable")
	}
	if s, _ := reg.Get("sketch"); s.ReadStats().Durable {
		t.Error("sketch summary reports durable")
	}
	if err := reg.Halt(); err != nil {
		t.Fatal(err)
	}

	reg2, err := registry.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Halt()
	if rep := reg2.Recovery(); len(rep.Summaries) != 1 || rep.Summaries[0].Name != "kept" {
		t.Fatalf("recovery = %+v, want exactly 'kept' recovered", rep)
	}
	for name, want := range map[string]float64{"kept": 3, "eph": 0, "sketch": 0} {
		e, ok := reg2.Get(name)
		if !ok {
			t.Fatalf("%s missing after restart", name)
		}
		v, err := e.View()
		if err != nil {
			t.Fatal(err)
		}
		if v.N() != want {
			t.Errorf("%s: restarted N = %.0f, want %.0f", name, v.N(), want)
		}
	}
}

// TestDurableRuntimeCreateRecovered: a summary created at runtime (the
// PUT path) is re-creatable from its WAL create record alone — no
// config stanza, no snapshot needed.
func TestDurableRuntimeCreateRecovered(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.New(durableConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	e, err := reg.Create("runtime", hh.Spec{Capacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch([]string{"a", "b", "a"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Halt(); err != nil {
		t.Fatal(err)
	}

	reg2, err := registry.New(durableConfig(dir, nil))
	if err != nil {
		t.Fatalf("recovery New: %v", err)
	}
	defer reg2.Halt()
	e2, ok := reg2.Get("runtime")
	if !ok {
		t.Fatal("runtime-created summary missing after restart")
	}
	v, err := e2.View()
	if err != nil {
		t.Fatal(err)
	}
	if v.N() != 3 {
		t.Fatalf("recovered N = %.0f, want 3", v.N())
	}
	if reg2.Recovery().Summaries[0].FromSnapshot {
		t.Error("summary reported as snapshot-seeded; it was rebuilt from the WAL alone")
	}
}

// TestDurableSpecConflict: a config stanza that disagrees with the
// recovered state must fail the boot loudly, never silently re-bound.
func TestDurableSpecConflict(t *testing.T) {
	dir := t.TempDir()
	reg, err := registry.New(durableConfig(dir, map[string]hh.Spec{"words": {Capacity: 128}}))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Get("words")
	if err := e.IngestBatch([]string{"a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Halt(); err != nil {
		t.Fatal(err)
	}
	if _, err := registry.New(durableConfig(dir, map[string]hh.Spec{"words": {Capacity: 256}})); err == nil {
		t.Fatal("capacity change over recovered state accepted")
	}
	// The unchanged stanza still boots.
	reg2, err := registry.New(durableConfig(dir, map[string]hh.Spec{"words": {Capacity: 128}}))
	if err != nil {
		t.Fatalf("unchanged stanza rejected: %v", err)
	}
	reg2.Halt()
}

// TestDurableIngestZeroAllocs pins the full durable ingest path —
// quiesce RLock, WAL append, concurrent-tier batch apply — at zero
// allocations per op at steady state, the acceptance bar for running
// durability on the hot path at all.
func TestDurableIngestZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; allocation accounting is meaningless under -race")
	}
	reg, err := registry.New(durableConfig(t.TempDir(), map[string]hh.Spec{
		"words": {Capacity: 1024},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Halt()
	e, _ := reg.Get("words")
	keys := zipfKeys(400, 4096, 5)
	// Warm: track the working set and grow the WAL scratch.
	if err := e.IngestBatch(keys); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := e.IngestBatch(keys); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("durable IngestBatch: %.4f allocs per run at steady state, want 0", avg)
	}
}

// TestDurableRecoversRetiredPipelineSpec: a data directory written while
// Spec still had a "pipeline" field (the retired ring-fed ingest tier)
// may carry "pipeline": true in a snapshot manifest spec and in a WAL
// Create record. Recovery decodes persisted specs with plain
// json.Unmarshal, so the field is dropped and both summaries come back
// on the locked sharded tier with exactly the state the same directory
// without the field recovers to — equal N, entries and certain bounds,
// which still bracket the exact counts.
func TestDurableRecoversRetiredPipelineSpec(t *testing.T) {
	const (
		current = `{"capacity":64,"shards":4,"concurrent":true,"borrowed_keys":true,"arena":true}`
		retired = `{"capacity":64,"shards":4,"concurrent":true,"pipeline":true,"borrowed_keys":true,"arena":true}`
	)
	keys := zipfKeys(1000, 20_000, 5)
	exact := make(map[string]float64)
	for _, k := range keys {
		exact[k]++
	}
	boot := func(spec string) *registry.Registry {
		dir := t.TempDir()
		writeDataDir(t, dir, spec, keys)
		reg, err := registry.New(durableConfig(dir, nil))
		if err != nil {
			t.Fatalf("recovering a data dir with spec %s: %v", spec, err)
		}
		t.Cleanup(func() { reg.Halt() })
		return reg
	}
	want, got := boot(current), boot(retired)
	for i, name := range []string{"snap", "wal"} {
		we, _ := want.Get(name)
		ge, ok := got.Get(name)
		if !ok {
			t.Fatalf("%s missing after recovery", name)
		}
		if b, _ := json.Marshal(we.Spec()); string(b) != current {
			t.Fatalf("the registry persists %s, not the spec this test writes", b)
		}
		if rs := got.Recovery().Summaries[i]; rs.Name != name || rs.FromSnapshot != (name == "snap") {
			t.Errorf("recovery report %+v: want %s seeded from the snapshot only if it is \"snap\"", rs, name)
		}
		if sp := ge.Spec(); sp != we.Spec() || sp.Shards != 4 || !sp.Concurrent {
			t.Errorf("%s recovered spec %+v, want %+v", name, sp, we.Spec())
		}
		wv, err := we.View()
		if err != nil {
			t.Fatal(err)
		}
		gv, err := ge.View()
		if err != nil {
			t.Fatal(err)
		}
		if gv.N() != float64(len(keys)) || gv.N() != wv.N() {
			t.Fatalf("%s recovered N = %v, want %d", name, gv.N(), len(keys))
		}
		if g, w := gv.Top(gv.Len()), wv.Top(wv.Len()); !slices.Equal(g, w) {
			t.Errorf("%s recovered entries differ from the current-format recovery", name)
		}
		for k, ex := range exact {
			lo, hi := gv.EstimateBounds(k)
			if wlo, whi := wv.EstimateBounds(k); lo != wlo || hi != whi {
				t.Fatalf("%s bounds for %q: [%v, %v], current format [%v, %v]", name, k, lo, hi, wlo, whi)
			}
			if lo > ex || ex > hi {
				t.Fatalf("%s bounds for %q: [%v, %v] exclude exact %v", name, k, lo, hi, ex)
			}
		}
	}
}

// writeDataDir lays down a data directory the way the registry does,
// with spec as the persisted JSON of two summaries: "snap" is covered
// by a snapshot manifest up to its first half and replays the rest
// from the WAL; "wal" lives in the WAL alone, from its Create record
// on. keys are logged in 512-key batches.
func writeDataDir(t *testing.T, dir, spec string, keys []string) {
	t.Helper()
	store, err := persist.Open(persist.Options{Dir: dir, Fsync: persist.FsyncRotate})
	if err != nil {
		t.Fatal(err)
	}
	var sp hh.Spec
	if err := json.Unmarshal([]byte(spec), &sp); err != nil {
		t.Fatal(err)
	}
	live, err := hh.NewFromSpec[string](sp)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 512
	half := (len(keys) / (2 * batch)) * batch
	var snapSeq, walSeq persist.Seq
	logBatches := func(name string, seq *persist.Seq, part []string, apply bool) {
		for lo := 0; lo < len(part); lo += batch {
			b := part[lo:min(lo+batch, len(part))]
			if err := store.AppendBatch(name, seq, b); err != nil {
				t.Fatal(err)
			}
			if apply {
				live.UpdateBatch(b)
			}
		}
	}
	if err := store.AppendCreate("snap", []byte(spec)); err != nil {
		t.Fatal(err)
	}
	logBatches("snap", &snapSeq, keys[:half], true)
	boundary, err := store.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := live.Encode(&blob); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteSnapshot(boundary, []persist.SummarySnapshot{{
		Name: "snap", Spec: json.RawMessage(spec), Seq: snapSeq.Load(),
		N: live.N(), Len: live.Len(), Algorithm: "spacesaving", Blob: blob.Bytes(),
	}}); err != nil {
		t.Fatal(err)
	}
	logBatches("snap", &snapSeq, keys[half:], false)
	if err := store.AppendCreate("wal", []byte(spec)); err != nil {
		t.Fatal(err)
	}
	logBatches("wal", &walSeq, keys, false)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableReplayRoundTripBytes: a reboot reproduces every summary's
// encoding byte for byte while record sizes rise and fall — v1 batches
// of 4096, 1 and 300 keys (among them the empty key and a 5 KB key),
// counted bodies that repeat keys, and a /merge blob between them — so
// a decode scratch reused across records cannot carry a stale tail into
// a replayed batch. A second reboot replays the same tail again and
// must give the same bytes.
func TestDurableReplayRoundTripBytes(t *testing.T) {
	names := []string{"flat", "sharded"}
	cfg := durableConfig(t.TempDir(), map[string]hh.Spec{
		"flat":    {Capacity: 256},
		"sharded": {Capacity: 256, Shards: 8},
	})
	keys := zipfKeys(1000, 4096, 13)
	big := strings.Repeat("k", 5000)
	mixed := append([]string{big, ""}, keys[:298]...)
	var countedBig []byte
	for i, k := range keys[:1000] { // zipf keys: the body repeats many
		countedBig = registry.AppendCountedRecord(countedBig, k, uint32(1+i%3))
	}
	countedSmall := countedBody(big, uint32(2), "", uint32(1), big, uint32(3))
	remote := hh.New[string](hh.WithCapacity(64))
	remote.UpdateBatch(keys[:500])
	var blob bytes.Buffer
	if err := remote.Encode(&blob); err != nil {
		t.Fatal(err)
	}

	reg, err := registry.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b registry.CountedBatch
	for _, name := range names {
		e, _ := reg.Get(name)
		counted := func(body []byte) error {
			if err := b.Parse(body, 0); err != nil {
				return err
			}
			return e.IngestCounted(&b)
		}
		for i, step := range []func() error{
			func() error { return e.IngestBatch(keys) },
			func() error { return counted(countedBig) },
			func() error { return e.IngestBatch([]string{""}) },
			func() error { return counted(countedSmall) },
			func() error {
				_, err := e.AbsorbBlob(bytes.NewReader(blob.Bytes()))
				return err
			},
			func() error { return e.IngestBatch(mixed) },
			func() error { return e.IngestBatch(keys[7:8]) },
			func() error { return counted(countedSmall) },
		} {
			if err := step(); err != nil {
				t.Fatalf("%s, step %d: %v", name, i, err)
			}
		}
	}
	encode := func(reg *registry.Registry) map[string][]byte {
		t.Helper()
		out := map[string][]byte{}
		for _, name := range names {
			e, ok := reg.Get(name)
			if !ok {
				t.Fatalf("%s missing", name)
			}
			v, err := e.View()
			if err != nil {
				t.Fatal(err)
			}
			var live, view bytes.Buffer
			if err := e.Live().Encode(&live); err != nil {
				t.Fatal(err)
			}
			if err := v.Encode(&view); err != nil {
				t.Fatal(err)
			}
			out[name+" live"], out[name+" view"] = live.Bytes(), view.Bytes()
		}
		return out
	}
	want := encode(reg)
	if err := reg.Halt(); err != nil {
		t.Fatal(err)
	}
	for boot := 1; boot <= 2; boot++ {
		reg2, err := registry.New(cfg)
		if err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
		if rep := reg2.Recovery(); rep.ReplayedBatches != 14 || rep.ReplayedBlobs != 2 {
			t.Errorf("boot %d: replayed %d records and %d blobs, want 14 and 2", boot, rep.ReplayedBatches, rep.ReplayedBlobs)
		}
		for what, w := range encode(reg2) {
			if !bytes.Equal(w, want[what]) {
				t.Errorf("boot %d: %s encoding differs from the pre-Halt bytes", boot, what)
			}
		}
		if err := reg2.Halt(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableCorruptRecordAfterLarger: a CRC-valid record whose body
// does not parse fails the boot with the error naming its kind, summary
// and sequence — also right after a larger valid record of its kind,
// whose decode left the replay scratch grown and full.
func TestDurableCorruptRecordAfterLarger(t *testing.T) {
	keys := zipfKeys(300, 4096, 17)
	var counted []byte
	for i, k := range keys[:1000] {
		counted = registry.AppendCountedRecord(counted, k, uint32(1+i%3))
	}
	for _, tc := range []struct {
		kind    byte
		valid   func(*persist.Store, *persist.Seq) error
		corrupt []byte
		want    string
	}{
		{
			persist.KindBatch,
			func(s *persist.Store, seq *persist.Seq) error { return s.AppendBatch("s", seq, keys) },
			// Two whole keys, then a length running past the body.
			append(registry.AppendBinaryRecord(registry.AppendBinaryRecord(nil, "a"), "b"), 9, 'c'),
			`registry: durability: persist: wal-0000000000000001.log: batch record for "s" (seq 2): registry: record at byte 4: key length 9 runs past the body`,
		},
		{
			persist.KindCounted,
			func(s *persist.Store, seq *persist.Seq) error { return s.AppendCounted("s", seq, counted) },
			// Two whole pairs, then a count of 0.
			append(countedBody("a", uint32(2), "b", uint32(1)), 1, 'c', 0),
			`registry: durability: persist: wal-0000000000000001.log: counted record for "s" (seq 2): registry: counted record at byte 6: count 0 outside [1, 4294967295]`,
		},
	} {
		dir := t.TempDir()
		store, err := persist.Open(persist.Options{Dir: dir, Fsync: persist.FsyncRotate})
		if err != nil {
			t.Fatal(err)
		}
		var seq persist.Seq
		if err := store.AppendCreate("s", []byte(`{"capacity":64,"shards":8}`)); err != nil {
			t.Fatal(err)
		}
		if err := tc.valid(store, &seq); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(dir, persist.WALDirName, "*.log"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("WAL segments %v, %v; want one", segs, err)
		}
		f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Write(persist.EncodeRecord(nil, tc.kind, 2, "s", tc.corrupt))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := registry.New(durableConfig(dir, nil)); err == nil || err.Error() != tc.want {
			t.Errorf("boot error %v, want %s", err, tc.want)
		}
	}
}
