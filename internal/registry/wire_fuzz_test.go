package registry_test

// FuzzIngestWire pins the ingest wire contract of POST /update for
// both batch formats: an arbitrary body either ingests fully (200,
// mass advances by exactly the acknowledged key count) or is rejected
// whole (non-200, mass unchanged) — and the server never panics. The
// same bytes also run as an hhwire counted body (docs/WIRE.md, "Counted frames"):
// rejected, it leaves the batch empty and N unchanged; accepted, it
// moves N by exactly the sum of its counts and re-encodes byte for
// byte. This is the nightly CI fuzz target for the server wire
// formats; the push/PR jobs replay its seed corpus.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	hh "repro"
	"repro/internal/registry"
)

func FuzzIngestWire(f *testing.F) {
	f.Add([]byte("alpha\nbeta\nalpha\n"), false)
	f.Add([]byte("no-trailing-newline"), false)
	f.Add([]byte("crlf\r\nline\r\n"), false)
	f.Add([]byte("\n\n\n"), false)
	f.Add(registry.AppendBinaryRecord(registry.AppendBinaryRecord(nil, "a"), "longer-key"), true)
	f.Add(registry.AppendBinaryRecord(nil, ""), true)
	f.Add([]byte{0xff}, true)                                                             // truncated uvarint
	f.Add([]byte{0x10, 'a'}, true)                                                        // length past body end
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02}, true) // overlong uvarint
	f.Add(append(registry.AppendBinaryRecord(nil, "good"), 0xff), true)
	// Counted bodies: pairs, a repeated key, count 0, a non-minimal
	// count, a count past 2^32−1, a truncated count.
	f.Add(registry.AppendCountedRecord(registry.AppendCountedRecord(nil, "a", 3), "bb", 1), true)
	f.Add(registry.AppendCountedRecord(registry.AppendCountedRecord(nil, "a", 200), "a", 1), true)
	f.Add([]byte{1, 'a', 0}, true)
	f.Add([]byte{1, 'a', 0x81, 0x00}, true)
	f.Add([]byte{1, 'a', 0x80, 0x80, 0x80, 0x80, 0x10}, true)
	f.Add([]byte{1, 'a'}, true)

	reg, err := registry.New(registry.Config{
		Summaries: map[string]hh.Spec{"fuzz": {Capacity: 32}},
	})
	if err != nil {
		f.Fatal(err)
	}
	srv := registry.NewServer(reg, 1<<20)
	entry, _ := reg.Get("fuzz")

	var cb registry.CountedBatch
	f.Fuzz(func(t *testing.T, body []byte, binaryCT bool) {
		before := entry.Live().N()
		if err := cb.Parse(body, 1<<20); err != nil {
			if len(cb.Keys) != 0 || len(cb.Counts) != 0 || cb.Items != 0 {
				t.Fatalf("rejected counted body left pairs: %d keys, %d items", len(cb.Keys), cb.Items)
			}
		} else {
			var re []byte
			var sum uint64
			for i, k := range cb.Keys {
				re = registry.AppendCountedRecord(re, k, cb.Counts[i])
				sum += uint64(cb.Counts[i])
			}
			if !bytes.Equal(re, body) || sum != cb.Items {
				t.Fatalf("accepted counted body %x re-encodes to %x (sum %d, items %d)", body, re, sum, cb.Items)
			}
		}
		if err := entry.IngestCounted(&cb); err != nil {
			t.Fatal(err)
		}
		if after := entry.Live().N(); after != before+float64(cb.Items) {
			t.Fatalf("counted body of %d items moved mass %v -> %v", cb.Items, before, after)
		}

		ct := registry.ContentTypeText
		if binaryCT {
			ct = registry.ContentTypeBinary
		}
		before = entry.Live().N()
		req := httptest.NewRequest(http.MethodPost, "/v1/fuzz/update", bytes.NewReader(body))
		req.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		after := entry.Live().N()
		if rec.Code != http.StatusOK {
			if after != before {
				t.Fatalf("rejected batch (status %d) changed mass %v -> %v", rec.Code, before, after)
			}
			return
		}
		var resp struct {
			Ingested float64 `json:"ingested"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 response not valid JSON: %v\n%s", err, rec.Body.Bytes())
		}
		if after != before+resp.Ingested {
			t.Fatalf("acknowledged %v keys but mass moved %v -> %v", resp.Ingested, before, after)
		}
	})
}
