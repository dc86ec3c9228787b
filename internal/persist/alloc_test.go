package persist

import (
	"fmt"
	"testing"

	"repro/internal/testutil"
)

// TestAppendBatchZeroAllocs pins the WAL half of the durable-ingest
// zero-alloc contract: AppendBatch builds the record in the writer's
// reused scratch and encodes the uvarint batch body in place, so at
// steady state a durable ingest adds no allocations over the in-memory
// path. (The registry-level test covers the full IngestBatch path; this
// one isolates the store so a regression points at the right layer.)
func TestAppendBatchZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; allocation accounting is meaningless under -race")
	}
	s, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncRotate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	var seq Seq
	// Warm: grow the scratch buffer to the steady-state record size.
	if err := s.AppendBatch("queries", &seq, keys); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := s.AppendBatch("queries", &seq, keys); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AppendBatch: %.4f allocs per run at steady state, want 0", avg)
	}
}

// TestAppendCountedZeroAllocs: the counted record copies its body into
// the same reused scratch, so durable counted ingest adds no
// allocations either.
func TestAppendCountedZeroAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates; allocation accounting is meaningless under -race")
	}
	s, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncRotate})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var body []byte
	for i := 0; i < 512; i++ {
		body = fmt.Appendf(body, "\x08key-%04d\x03", i)
	}
	var seq Seq
	if err := s.AppendCounted("queries", &seq, body); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(10, func() {
		if err := s.AppendCounted("queries", &seq, body); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AppendCounted: %.4f allocs per run at steady state, want 0", avg)
	}
}
