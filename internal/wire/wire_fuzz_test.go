package wire

import (
	"bytes"
	"testing"

	hh "repro"
	"repro/internal/registry"
)

// FuzzWireFrame pins the decoder's totality: arbitrary bytes must
// produce an error or a well-formed Frame, never a panic — the
// machine-checked //hh:nopanic contract of docs/WIRE.md's "error
// behavior" section. Valid frames must round-trip byte-exactly. Every
// accepted frame then runs through the listener's own ingest dispatch
// (v1 or counted body): a rejected body moves N by nothing, an accepted
// one by exactly its occurrences — the sum of the counts of a counted
// body, which also re-encodes byte for byte.
func FuzzWireFrame(f *testing.F) {
	v1 := func(name string, flags byte, keys ...string) []byte {
		var body []byte
		for _, k := range keys {
			body = registry.AppendBinaryRecord(body, k)
		}
		return AppendFrame(nil, name, flags, body)
	}
	f.Add(v1("queries", 0, "alpha", "beta"))
	f.Add(v1("s", FlagAck))
	f.Add(v1("a.very-long_name.0", 0, "", "k"))
	f.Add([]byte(Magic))
	f.Add([]byte("HHWB\x01\x00\x01\x00\x00\x00\x00\x00s"))
	f.Add([]byte("HHWA\x01\x00\x00\x00"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Counted frames: pairs with a repeated key, an acked one, count 0,
	// a non-minimal count, a truncated count, and flag bits past COUNTED.
	countedBody := registry.AppendCountedRecord(registry.AppendCountedRecord(
		registry.AppendCountedRecord(nil, "alpha", 40), "beta", 1), "alpha", 2)
	f.Add(AppendFrame(nil, "s", FlagCounted, countedBody))
	f.Add(AppendFrame(nil, "s", FlagCounted|FlagAck, countedBody[:7]))
	f.Add(AppendFrame(nil, "s", FlagCounted, []byte{1, 'a', 0}))
	f.Add(AppendFrame(nil, "s", FlagCounted, []byte{1, 'a', 0x81, 0x00}))
	f.Add(AppendFrame(nil, "s", FlagCounted, []byte{1, 'a'}))
	f.Add(AppendFrame(nil, "s", 0x04|FlagCounted, countedBody))

	const maxBody = 1 << 20
	reg, err := registry.New(registry.Config{Summaries: map[string]hh.Spec{"s": {Capacity: 32}}})
	if err != nil {
		f.Fatal(err)
	}
	l := NewListener(reg, maxBody)
	e, _ := reg.Get("s")
	var keys []string
	var cb, check registry.CountedBatch
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ParseFrame(data, maxBody)
		if err != nil {
			return
		}
		if len(fr.Name) < 1 || len(fr.Name) > MaxNameLen {
			t.Fatalf("accepted frame with name length %d", len(fr.Name))
		}
		if fr.Flags&^(FlagAck|FlagCounted) != 0 {
			t.Fatalf("accepted reserved flags %#02x", fr.Flags)
		}
		// Re-encoding an accepted frame reproduces the input exactly —
		// parser and encoder agree on every byte.
		out := AppendFrame(nil, string(fr.Name), fr.Flags, fr.Body)
		if !bytes.Equal(out, data) {
			t.Fatalf("round-trip mismatch:\n in  %q\n out %q", data, out)
		}
		if fr.Flags&FlagCounted != 0 && check.Parse(fr.Body, maxBody) == nil {
			var re []byte
			for i, k := range check.Keys {
				re = registry.AppendCountedRecord(re, k, check.Counts[i])
			}
			if !bytes.Equal(re, fr.Body) {
				t.Fatalf("counted body %x re-encodes to %x", fr.Body, re)
			}
		}
		before := e.Live().N()
		var items uint64
		keys, items, err = l.ingest(e, fr.Flags, fr.Body, keys, &cb)
		after := e.Live().N()
		if err != nil {
			if after != before {
				t.Fatalf("rejected body moved N %v -> %v", before, after)
			}
			return
		}
		if after != before+float64(items) {
			t.Fatalf("accepted body of %d occurrences moved N %v -> %v", items, before, after)
		}
		if fr.Flags&FlagCounted != 0 && items != check.Items {
			t.Fatalf("counted body ingested %d occurrences, parse summed %d", items, check.Items)
		}
	})
}
