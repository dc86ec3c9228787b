package persist

import (
	"bytes"
	"testing"
)

// FuzzWALRecord drives the replay decoders with arbitrary bytes. Two
// contracts are under test: ScanSegment is total over any stream (it
// returns a report or an error, never panics, and never allocates
// beyond its maxRecord bound), and any payload ParseRecordPayload
// accepts re-encodes byte-identically through EncodeRecord — so the
// writer and the replayer agree on one canonical frame per record.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	seed := buildSegment(
		EncodeRecord(nil, KindCreate, 0, "queries", []byte(`{"capacity":8}`)),
		EncodeRecord(nil, KindBatch, 1, "queries", []byte("\x01a\x02bb")),
		EncodeRecord(nil, KindBlob, 2, "queries", []byte("HHSUM2..")),
	)
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add(EncodeRecord(nil, KindBatch, 99, "s", bytes.Repeat([]byte{'k'}, 64)))
	// Counted records (kind 4): a segment mixing them with batches, and
	// a bare payload with a body the registry's parser would reject —
	// the WAL frames bodies, it does not judge them.
	counted := buildSegment(
		EncodeRecord(nil, KindCounted, 3, "queries", []byte("\x01a\x05\x02bb\x01")),
		EncodeRecord(nil, KindBatch, 4, "queries", []byte("\x01a")),
		EncodeRecord(nil, KindCounted, 5, "queries", nil),
	)
	f.Add(counted)
	f.Add(counted[:len(counted)-3])
	f.Add(EncodeRecord(nil, KindCounted, 7, "s", []byte{1, 'a', 0})[recHeaderLen:])
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRecord = 1 << 16
		for _, tolerate := range []bool{true, false} {
			rep, err := ScanSegment(bytes.NewReader(data), maxRecord, tolerate, func(rec Record) error {
				if rec.Kind < KindBatch || rec.Kind > KindCounted {
					t.Fatalf("delivered a record of unknown kind %d", rec.Kind)
				}
				// Every delivered record round-trips through the encoder
				// to the exact payload bytes the CRC covered.
				enc := EncodeRecord(nil, rec.Kind, rec.Seq, string(rec.Name), rec.Body)
				payload := enc[recHeaderLen:]
				if len(payload) > len(data) {
					t.Fatalf("re-encoded payload %d bytes from %d input bytes", len(payload), len(data))
				}
				if _, perr := ParseRecordPayload(payload); perr != nil {
					t.Fatalf("re-encoded payload fails to parse: %v", perr)
				}
				return nil
			})
			if err == nil && rep.Records < 0 {
				t.Fatal("negative record count")
			}
		}
		// ParseRecordPayload is total over raw payloads too.
		if rec, err := ParseRecordPayload(data); err == nil {
			enc := EncodeRecord(nil, rec.Kind, rec.Seq, string(rec.Name), rec.Body)
			if !bytes.Equal(enc[recHeaderLen:], data) {
				t.Fatalf("payload did not round-trip: %x != %x", enc[recHeaderLen:], data)
			}
		}
	})
}
