package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// buildSegment assembles a well-formed segment image in memory:
// header plus the given framed records.
func buildSegment(records ...[]byte) []byte {
	seg := []byte(segMagic)
	seg = append(seg, segVersion, 0, 0, 0)
	for _, r := range records {
		seg = append(seg, r...)
	}
	return seg
}

type gotRecord struct {
	Kind byte
	Seq  uint64
	Name string
	Body string
}

func collect(t *testing.T, dir string, before uint64) ([]gotRecord, ReplayReport) {
	t.Helper()
	var got []gotRecord
	rep, err := ScanWAL(dir, before, DefaultMaxRecordBytes, func(rec Record) error {
		got = append(got, gotRecord{rec.Kind, rec.Seq, string(rec.Name), string(rec.Body)})
		return nil
	})
	if err != nil {
		t.Fatalf("ScanWAL: %v", err)
	}
	return got, rep
}

func TestRecordRoundtrip(t *testing.T) {
	recs := [][]byte{
		EncodeRecord(nil, KindCreate, 0, "queries", []byte(`{"capacity":64}`)),
		EncodeRecord(nil, KindBatch, 1, "queries", []byte("\x03abc\x01x")),
		EncodeRecord(nil, KindBlob, 2, "queries", bytes.Repeat([]byte{0xAA}, 300)),
		EncodeRecord(nil, KindBatch, 1, "a", nil),
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), buildSegment(recs...), 0o644); err != nil {
		t.Fatal(err)
	}
	got, rep := collect(t, dir, 0)
	if rep.Torn || rep.Segments != 1 || rep.Records != 4 {
		t.Fatalf("report = %+v, want 1 segment, 4 records, clean", rep)
	}
	want := []gotRecord{
		{KindCreate, 0, "queries", `{"capacity":64}`},
		{KindBatch, 1, "queries", "\x03abc\x01x"},
		{KindBlob, 2, "queries", string(bytes.Repeat([]byte{0xAA}, 300))},
		{KindBatch, 1, "a", ""},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseRecordPayloadRejects(t *testing.T) {
	valid := EncodeRecord(nil, KindBatch, 7, "s", []byte("body"))[recHeaderLen:]
	if _, err := ParseRecordPayload(valid); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	cases := map[string][]byte{
		"short":         valid[:minPayloadLen-1],
		"bad kind":      EncodeRecord(nil, 9, 7, "s", []byte("body"))[recHeaderLen:],
		"create w/ seq": EncodeRecord(nil, KindCreate, 3, "s", nil)[recHeaderLen:],
		// nameLen beyond the payload: kind + seq + nameLen=200 + 1 byte.
		"name overruns payload": {KindBatch, 0, 0, 0, 0, 0, 0, 0, 0, 200, 0, 'x'},
	}
	zero := EncodeRecord(nil, KindBatch, 7, "s", []byte("body"))[recHeaderLen:]
	zero[9], zero[10] = 0, 0 // nameLen = 0
	cases["zero name length"] = zero
	for name, payload := range cases {
		if _, err := ParseRecordPayload(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTornTailEveryByte is the crash-matrix core: a segment truncated
// at EVERY byte boundary of its image must replay the fully written
// prefix records and report (not fail on) the torn remainder.
func TestTornTailEveryByte(t *testing.T) {
	recs := [][]byte{
		EncodeRecord(nil, KindCreate, 0, "s", []byte(`{}`)),
		EncodeRecord(nil, KindBatch, 1, "s", []byte("\x01a\x02bb")),
		EncodeRecord(nil, KindBatch, 2, "s", []byte("\x03ccc")),
	}
	full := buildSegment(recs...)
	// Record start offsets (after the 8-byte segment header).
	boundaries := map[int]int{segHeaderLen: 0}
	off := segHeaderLen
	for i, r := range recs {
		off += len(r)
		boundaries[off] = i + 1
	}
	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, rep := collect(t, dir, 0)
		wantRecords, atBoundary := boundaries[cut]
		if !atBoundary {
			// Find the last boundary before the cut.
			for b, n := range boundaries {
				if b <= cut && n > wantRecords {
					wantRecords = n
				}
			}
			if cut < segHeaderLen {
				wantRecords = 0
			}
			if !rep.Torn {
				t.Fatalf("cut=%d: torn tail not reported", cut)
			}
		} else if rep.Torn {
			t.Fatalf("cut=%d: clean boundary reported torn at offset %d", cut, rep.TornOffset)
		}
		if len(got) != wantRecords {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, len(got), wantRecords)
		}
		for i, g := range got {
			want := gotRecord{recs[i][recHeaderLen], 0, "s", ""}
			if g.Kind != want.Kind || g.Name != "s" {
				t.Fatalf("cut=%d: record %d = %+v", cut, i, g)
			}
		}
	}
}

// TestCorruptionIsNotTorn: damage that cannot be a torn write fails
// the scan even where torn tails are tolerated.
func TestCorruptionIsNotTorn(t *testing.T) {
	t.Run("crc valid, payload invalid", func(t *testing.T) {
		// EncodeRecord frames any kind; kind 9 passes CRC, fails parse.
		dir := t.TempDir()
		seg := buildSegment(EncodeRecord(nil, 9, 1, "s", nil))
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ScanWAL(dir, 0, DefaultMaxRecordBytes, nil); err == nil {
			t.Fatal("CRC-valid invalid payload replayed without error")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		dir := t.TempDir()
		seg := buildSegment(EncodeRecord(nil, KindBatch, 1, "s", nil))
		copy(seg, "NOPE")
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ScanWAL(dir, 0, DefaultMaxRecordBytes, nil); err == nil {
			t.Fatal("bad segment magic replayed without error")
		}
	})
	t.Run("torn non-final segment", func(t *testing.T) {
		dir := t.TempDir()
		rec := EncodeRecord(nil, KindBatch, 1, "s", []byte("\x01a"))
		seg := buildSegment(rec, rec)
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg[:len(seg)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(2)), buildSegment(rec), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ScanWAL(dir, 0, DefaultMaxRecordBytes, nil); err == nil {
			t.Fatal("torn record in a non-final segment replayed without error")
		}
		// The same bytes as the final segment are a tolerated tail.
		if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
			t.Fatal(err)
		}
		_, rep := collect(t, dir, 0)
		if !rep.Torn || rep.TornSegment != segmentName(1) {
			t.Fatalf("report = %+v, want torn tail in %s", rep, segmentName(1))
		}
	})
}

func TestStoreAppendReplay(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		s, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	var seq Seq
	if err := s.AppendCreate("queries", []byte(`{"capacity":8}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch("queries", &seq, []string{"a", "bb", "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBlob("queries", &seq, []byte("HHSUM2-not-really")); err != nil {
		t.Fatal(err)
	}
	if got := seq.Load(); got != 2 {
		t.Fatalf("seq = %d, want 2", got)
	}
	// The writer's own segment is not replayed by the same process.
	if _, rep := collect(t, filepath.Join(dir, WALDirName), s.firstSeg); rep.Records != 0 {
		t.Fatalf("replay below own boot segment saw %d records", rep.Records)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := open()
	defer s2.Close()
	var got []gotRecord
	rep, err := s2.ReplayWAL(func(rec Record) error {
		got = append(got, gotRecord{rec.Kind, rec.Seq, string(rec.Name), string(rec.Body)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []gotRecord{
		{KindCreate, 0, "queries", `{"capacity":8}`},
		{KindBatch, 1, "queries", "\x01a\x02bb\x01a"},
		{KindBlob, 2, "queries", "HHSUM2-not-really"},
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d (report %+v)", len(got), len(want), rep)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Replay is read-only and repeatable: a second pass delivers the
	// identical sequence.
	var again []gotRecord
	if _, err := s2.ReplayWAL(func(rec Record) error {
		again = append(again, gotRecord{rec.Kind, rec.Seq, string(rec.Name), string(rec.Body)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(again) != len(got) {
		t.Fatalf("second replay delivered %d records, want %d", len(again), len(got))
	}
	for i := range got {
		if again[i] != got[i] {
			t.Errorf("second replay record %d = %+v, want %+v", i, again[i], got[i])
		}
	}
}

func TestSegmentRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SegmentBytes: 256, Fsync: FsyncRotate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var seq Seq
	keys := []string{"kkkkkkkkkkkkkkkk", "jjjjjjjjjjjjjjjj"}
	for i := 0; i < 50; i++ {
		if err := s.AppendBatch("s", &seq, keys); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(s.walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce >= 3 segments, got %d", len(segs))
	}
	boundary, err := s.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(boundary, nil); err != nil {
		t.Fatal(err)
	}
	segs, err = listSegments(s.walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range segs {
		if sg.index < boundary {
			t.Errorf("segment %d survived pruning below boundary %d", sg.index, boundary)
		}
	}
}

func TestSnapshotCommitProtocol(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("pretend-encoded-summary")
	snap := SummarySnapshot{
		Name: "queries", Spec: json.RawMessage(`{"capacity":8}`),
		Seq: 42, N: 100.5, Len: 7, Algorithm: "SPACESAVING",
		Guarantee: &ManifestGuarantee{A: 1, B: 1},
		Blob:      blob,
	}
	// An orphan directory from a "crashed" earlier snapshot attempt:
	// ignored by loads, collected by the next commit.
	if err := os.MkdirAll(filepath.Join(dir, snapDirName(9)), 0o755); err != nil {
		t.Fatal(err)
	}
	if man, _, _, err := s.LoadSnapshot(); err != nil || man != nil {
		t.Fatalf("LoadSnapshot before any commit = %v, %v; want nil, nil", man, err)
	}
	boundary, err := s.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot(boundary, []SummarySnapshot{snap}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapDirName(9))); !os.IsNotExist(err) {
		t.Error("orphan snapshot directory survived the commit")
	}
	man, snapDir, blobs, err := s.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if man.Format != ManifestFormat || man.WALSegment != boundary {
		t.Fatalf("manifest = %+v", man)
	}
	ms := man.Summaries[0]
	if ms.Name != "queries" || ms.Seq != 42 || ms.N != 100.5 || ms.Len != 7 ||
		ms.Size != int64(len(blob)) || ms.CRC32C != Checksum(blob) || ms.Guarantee == nil {
		t.Fatalf("manifest summary = %+v", ms)
	}
	if !bytes.Equal(blobs["queries"], blob) {
		t.Fatal("blob did not round-trip")
	}
	// Second commit supersedes the first and collects its directory.
	if err := s.WriteSnapshot(boundary, []SummarySnapshot{snap}); err != nil {
		t.Fatal(err)
	}
	man2, snapDir2, _, err := s.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snapDir2 == snapDir {
		t.Fatal("second commit reused the snapshot directory")
	}
	if _, err := os.Stat(snapDir); !os.IsNotExist(err) {
		t.Error("superseded snapshot directory survived")
	}
	if man2.WALSegment != boundary {
		t.Fatalf("manifest2 = %+v", man2)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen continues the epoch chain.
	s2, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.epoch < 2 {
		t.Fatalf("reopened epoch = %d, want >= 2", s2.epoch)
	}

	t.Run("corrupt blob fails load", func(t *testing.T) {
		_, snapDir, _, err := s2.LoadSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(snapDir, "queries"+BlobSuffix)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[0] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := s2.LoadSnapshot(); err == nil {
			t.Fatal("corrupt blob loaded without error")
		}
		data[0] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("dangling CURRENT fails load", func(t *testing.T) {
		orig, err := os.ReadFile(filepath.Join(dir, CurrentName))
		if err != nil {
			t.Fatal(err)
		}
		defer os.WriteFile(filepath.Join(dir, CurrentName), orig, 0o644)
		if err := os.WriteFile(filepath.Join(dir, CurrentName), []byte(snapDirName(77)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadManifest(dir); err == nil {
			t.Fatal("CURRENT naming a missing directory read without error")
		}
	})
	t.Run("manifest escapes snapshot dir", func(t *testing.T) {
		doc := fmt.Sprintf(`{"format":%q,"summaries":[{"name":"x","blob":"../evil"}]}`, ManifestFormat)
		path := filepath.Join(t.TempDir(), ManifestName)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readManifestFile(path); err == nil {
			t.Fatal("path-escaping blob reference accepted")
		}
	})
}

// TestAppendRejectsBadNames pins the record-level name bounds.
func TestAppendRejectsBadNames(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncRotate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var seq Seq
	if err := s.AppendBatch("", &seq, []string{"a"}); err == nil {
		t.Error("empty name accepted")
	}
	long := string(bytes.Repeat([]byte{'n'}, MaxNameLen+1))
	if err := s.AppendBatch(long, &seq, []string{"a"}); err == nil {
		t.Error("over-long name accepted")
	}
	if seq.Load() != 0 {
		t.Errorf("rejected appends advanced seq to %d", seq.Load())
	}
}

// tornBootDir builds the data directory a crash leaves behind: boot 1
// appends three batches and closes, then half of a fourth record frame
// reaches wal-1 before the process dies.
func tornBootDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var seq Seq
	for i := 0; i < 3; i++ {
		if err := s.AppendBatch("s", &seq, []string{"a", "bb"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rec := EncodeRecord(nil, KindBatch, 4, "s", []byte("\x01a\x02bb"))
	f, err := os.OpenFile(filepath.Join(dir, WALDirName, segmentName(1)), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec[:len(rec)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// boot opens dir as a recovering process does and replays its WAL,
// returning the open store, the replayed records and the report.
func boot(t *testing.T, dir string) (*Store, []gotRecord, ReplayReport) {
	t.Helper()
	s, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var got []gotRecord
	rep, err := s.ReplayWAL(func(rec Record) error {
		got = append(got, gotRecord{rec.Kind, rec.Seq, string(rec.Name), string(rec.Body)})
		return nil
	})
	if err != nil {
		s.Close()
		t.Fatalf("replay: %v", err)
	}
	return s, got, rep
}

func walSegments(t *testing.T, dir string) []uint64 {
	t.Helper()
	segs, err := listSegments(filepath.Join(dir, WALDirName))
	if err != nil {
		t.Fatal(err)
	}
	var idx []uint64
	for _, sg := range segs {
		idx = append(idx, sg.index)
	}
	return idx
}

// TestTornTailSealedAcrossBoots pins the segment invariant across
// boots: a torn tail is cut before the next segment exists, so a
// second crash before any snapshot still leaves a bootable directory.
func TestTornTailSealedAcrossBoots(t *testing.T) {
	t.Run("reboot after a torn boot", func(t *testing.T) {
		dir := tornBootDir(t)
		s, got, rep := boot(t, dir)
		if !rep.Torn || rep.TornSegment != segmentName(1) || len(got) != 3 {
			t.Fatalf("boot 2: %d records, report %+v; want 3 and a torn wal-1", len(got), rep)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		cut := rep.TornOffset
		s, got, rep = boot(t, dir)
		defer s.Close()
		if rep.Torn || len(got) != 3 {
			t.Fatalf("boot 3: %d records, report %+v; want 3, clean", len(got), rep)
		}
		st, err := os.Stat(filepath.Join(dir, WALDirName, segmentName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != cut {
			t.Fatalf("wal-1 is %d bytes, want it cut to the torn offset %d", st.Size(), cut)
		}
	})
	t.Run("torn boot appends before dying", func(t *testing.T) {
		dir := tornBootDir(t)
		s, got, _ := boot(t, dir)
		var seq Seq
		seq.Store(got[len(got)-1].Seq)
		for i := 0; i < 2; i++ {
			if err := s.AppendBatch("s", &seq, []string{"c"}); err != nil {
				t.Fatal(err)
			}
		}
		// FsyncAlways: the records are on disk, so dropping the store
		// without Close is the crash (the deferred Close only releases
		// its file).
		defer s.Close()
		s, got, rep := boot(t, dir)
		defer s.Close()
		if rep.Torn || len(got) != 5 || got[4].Seq != 5 {
			t.Fatalf("boot 3: %d records, report %+v; want seqs 1..5, clean", len(got), rep)
		}
	})
	t.Run("torn boot dies mid-replay", func(t *testing.T) {
		dir := tornBootDir(t)
		s, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		died := errors.New("killed")
		if _, err := s.ReplayWAL(func(Record) error { return died }); !errors.Is(err, died) {
			t.Fatalf("replay error = %v, want the callback's", err)
		}
		if err := s.AppendBatch("s", &Seq{}, []string{"x"}); err == nil {
			t.Fatal("append before a finished replay succeeded")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if segs := walSegments(t, dir); len(segs) != 1 {
			t.Fatalf("segments after the failed boot = %v, want only wal-1", segs)
		}
		s, got, rep := boot(t, dir)
		defer s.Close()
		if !rep.Torn || len(got) != 3 {
			t.Fatalf("boot 3: %d records, report %+v; want 3 and the torn tail", len(got), rep)
		}
	})
	t.Run("segment torn inside its header", func(t *testing.T) {
		dir := tornBootDir(t)
		s, _, _ := boot(t, dir) // cuts wal-1's tail
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// A crash right after creating wal-2 left 3 of its 8 header bytes.
		if err := os.WriteFile(filepath.Join(dir, WALDirName, segmentName(2)), []byte(segMagic[:3]), 0o644); err != nil {
			t.Fatal(err)
		}
		s, got, rep := boot(t, dir)
		if !rep.Torn || rep.TornSegment != segmentName(2) || rep.TornOffset != 0 || len(got) != 3 {
			t.Fatalf("boot: %d records, report %+v; want 3 and wal-2 torn at 0", len(got), rep)
		}
		var seq Seq
		seq.Store(3)
		if err := s.AppendBatch("s", &seq, []string{"d"}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if segs := walSegments(t, dir); len(segs) != 2 || segs[0] != 1 || segs[1] != 3 {
			t.Fatalf("segments = %v, want [1 3]: the torn wal-2 removed", segs)
		}
		s, got, rep = boot(t, dir)
		defer s.Close()
		if rep.Torn || len(got) != 4 {
			t.Fatalf("next boot: %d records, report %+v; want 4, clean", len(got), rep)
		}
	})
	t.Run("rotated segment corruption still fails", func(t *testing.T) {
		dir := tornBootDir(t)
		rec := EncodeRecord(nil, KindBatch, 9, "s", []byte("\x01z"))
		if err := os.WriteFile(filepath.Join(dir, WALDirName, segmentName(2)), buildSegment(rec), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.ReplayWAL(nil); err == nil {
			t.Fatal("a torn record in a non-final segment replayed without error")
		}
		if _, err := s.BeginSnapshot(); err == nil {
			t.Fatal("snapshot boundary opened over a corrupt WAL")
		}
		if segs := walSegments(t, dir); len(segs) != 2 {
			t.Fatalf("segments = %v, want the two original ones", segs)
		}
	})
}

// TestAppendCountedReplay: a counted batch is logged as one kind-4
// record carrying its body verbatim, takes the next sequence number
// like a batch record, and replays in order with the others.
func TestAppendCountedReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	var seq Seq
	body := []byte("\x01a\x05\x02bb\x01")
	if err := s.AppendBatch("q", &seq, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendCounted("q", &seq, body); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, rep := collect(t, filepath.Join(dir, WALDirName), 0)
	want := []gotRecord{{KindBatch, 1, "q", "\x01a"}, {KindCounted, 2, "q", string(body)}}
	if rep.Records != len(want) || rep.Torn {
		t.Fatalf("report = %+v, want %d clean records", rep, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
