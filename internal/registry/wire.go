package registry

import (
	"encoding/binary"
	"fmt"
	"unsafe"
)

// Ingest batch wire formats of POST /v1/{name}/update. Two encodings
// carry the same payload — a flat batch of string keys, each occurring
// once (the unit-weight UpdateBatch contract):
//
//   - Text (Content-Type text/plain, the default): newline-delimited
//     UTF-8 keys. A trailing newline is optional; CRLF line endings are
//     tolerated; empty lines are skipped (an empty key therefore needs
//     the binary format). The format a shell one-liner can produce.
//   - Binary (Content-Type application/x-hh-batch): repeated records of
//     uvarint key length followed by that many key bytes, until the end
//     of the body. Zero-length keys are valid. The format an agent uses
//     when keys may contain newlines, and the one that parses fastest.
//
// Parsing is strict and total: any malformed body — a truncated or
// overlong uvarint, a length past the end of the body, a key beyond
// MaxKeyLen — yields an error and the server ingests nothing from the
// request (parse first, UpdateBatch only on success), so a corrupt
// frame can never partially poison a summary. FuzzIngestWire pins the
// no-panic/no-corruption contract.

const (
	// ContentTypeText is the newline-delimited ingest format.
	ContentTypeText = "text/plain"
	// ContentTypeBinary is the length-prefixed ingest format.
	ContentTypeBinary = "application/x-hh-batch"
)

// MaxKeyLen bounds a single key's byte length in either format,
// matching the library codec's key sanity bound.
const MaxKeyLen = 1 << 20

// AppendTextKeys parses a newline-delimited batch body, appending the
// keys to dst. On error the appended prefix is meaningless and dst
// must be discarded by the caller.
//
//hh:nopanic
func AppendTextKeys(dst []string, body []byte) ([]string, error) {
	for start := 0; start < len(body); {
		end := start
		for end < len(body) && body[end] != '\n' {
			end++
		}
		line := body[start:end]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) > MaxKeyLen {
			return dst, fmt.Errorf("registry: key of %d bytes exceeds the %d-byte limit", len(line), MaxKeyLen)
		}
		if len(line) > 0 {
			dst = append(dst, string(line))
		}
		start = end + 1
	}
	return dst, nil
}

// AppendBinaryKeys parses a length-prefixed batch body, appending the
// keys to dst. On error the appended prefix is meaningless and dst
// must be discarded by the caller.
//
//hh:nopanic
func AppendBinaryKeys(dst []string, body []byte) ([]string, error) {
	for off := 0; off < len(body); {
		n, w := binary.Uvarint(body[off:])
		if w <= 0 {
			return dst, fmt.Errorf("registry: record at byte %d: truncated or overlong key length", off)
		}
		off += w
		if n > MaxKeyLen {
			return dst, fmt.Errorf("registry: record at byte %d: key of %d bytes exceeds the %d-byte limit", off-w, n, MaxKeyLen)
		}
		if uint64(len(body)-off) < n {
			return dst, fmt.Errorf("registry: record at byte %d: key length %d runs past the body", off-w, n)
		}
		dst = append(dst, string(body[off:off+int(n)]))
		off += int(n)
	}
	return dst, nil
}

// AppendBinaryKeysBorrowed parses a length-prefixed batch body like
// AppendBinaryKeys, but the appended keys are zero-copy views aliasing
// body's memory instead of fresh strings. The caller must (a) keep body
// unmodified until the keys have been consumed and (b) feed the keys
// only to summaries built with borrowed-key ingest (hh.WithBorrowedKeys
// — every registry-created summary), which clone any key they retain.
// This is the serving hot path: parsing costs no allocations at all,
// and only the insertion tail of the stream is ever copied.
//
//hh:nopanic
func AppendBinaryKeysBorrowed(dst []string, body []byte) ([]string, error) {
	for off := 0; off < len(body); {
		n, w := binary.Uvarint(body[off:])
		if w <= 0 {
			return dst, fmt.Errorf("registry: record at byte %d: truncated or overlong key length", off)
		}
		off += w
		if n > MaxKeyLen {
			return dst, fmt.Errorf("registry: record at byte %d: key of %d bytes exceeds the %d-byte limit", off-w, n, MaxKeyLen)
		}
		if uint64(len(body)-off) < n {
			return dst, fmt.Errorf("registry: record at byte %d: key length %d runs past the body", off-w, n)
		}
		dst = append(dst, unsafeString(body[off:off+int(n)]))
		off += int(n)
	}
	return dst, nil
}

// AppendTextKeysBorrowed parses a newline-delimited batch body like
// AppendTextKeys, with the same zero-copy contract as
// AppendBinaryKeysBorrowed: the appended keys alias body.
//
//hh:nopanic
func AppendTextKeysBorrowed(dst []string, body []byte) ([]string, error) {
	for start := 0; start < len(body); {
		end := start
		for end < len(body) && body[end] != '\n' {
			end++
		}
		line := body[start:end]
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) > MaxKeyLen {
			return dst, fmt.Errorf("registry: key of %d bytes exceeds the %d-byte limit", len(line), MaxKeyLen)
		}
		if len(line) > 0 {
			dst = append(dst, unsafeString(line))
		}
		start = end + 1
	}
	return dst, nil
}

// unsafeString returns a string view over b without copying. The view
// is only valid while b's memory is neither reused nor mutated.
//
//hh:nopanic
func unsafeString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// CountedBatch is one parsed counted body — the body of an hhwire
// counted frame (docs/WIRE.md, "Counted frames") and of a counted WAL record:
// repeated (uvarint key length, key, uvarint count) triples, meaning
// the batch that carries each key count times, in pair order. A
// CountedBatch is reusable scratch: Parse refills it without
// allocating once its slices have grown to the largest body seen.
type CountedBatch struct {
	// Body is the parsed body, which Keys alias — the bytes a durable
	// entry logs verbatim.
	Body []byte
	// Keys and Counts are the pairs in body order; a key may repeat.
	Keys   []string
	Counts []uint32
	// Items is the sum of Counts: the occurrences the body carries.
	Items uint64
}

// MaxCount bounds one pair's count: it must fit the uint32 counts of
// Summary.UpdateCounts.
const MaxCount = 1<<32 - 1

// Parse parses body as a counted body into b, replacing its contents.
// The keys alias body under the borrowed-key contract of
// AppendBinaryKeysBorrowed. maxItems bounds the sum of the counts — the
// occurrences one body may demand — and is clamped to MaxCount; <= 0
// means DefaultMaxBodyBytes, the body-byte cap, which is the most
// occurrences a v1 body of that cap can carry. Validation is strict
// and total: a truncated or non-minimal uvarint, a key beyond
// MaxKeyLen or past the end of the body, a count of 0 or past
// MaxCount, or a sum past maxItems is an error, and on error b holds
// no pairs, so nothing of a malformed body can reach a summary. Minimal
// uvarints make every accepted body its own canonical encoding
// (AppendCountedRecord re-encodes it byte for byte).
//
//hh:nopanic
func (b *CountedBatch) Parse(body []byte, maxItems int64) error {
	if maxItems <= 0 {
		maxItems = DefaultMaxBodyBytes
	}
	limit := uint64(min(maxItems, MaxCount))
	b.Body, b.Keys, b.Counts, b.Items = body, b.Keys[:0], b.Counts[:0], 0 //hh:checked a [:0] reslice cannot panic
	fail := func(off int, format string, args ...any) error {
		b.Body, b.Keys, b.Counts = nil, b.Keys[:0], b.Counts[:0] //hh:checked a [:0] reslice cannot panic
		return fmt.Errorf("registry: counted record at byte %d: "+format, append([]any{off}, args...)...)
	}
	var sum uint64
	for off := 0; off < len(body); {
		start := off
		n, w := binary.Uvarint(body[off:])
		if w <= 0 {
			return fail(start, "truncated or overlong key length")
		}
		if w > 1 && body[off+w-1] == 0 {
			return fail(start, "non-minimal key length")
		}
		off += w
		if n > MaxKeyLen {
			return fail(start, "key of %d bytes exceeds the %d-byte limit", n, MaxKeyLen)
		}
		if uint64(len(body)-off) < n {
			return fail(start, "key length %d runs past the body", n)
		}
		key := unsafeString(body[off : off+int(n)])
		off += int(n)
		c, w := binary.Uvarint(body[off:])
		if w <= 0 {
			return fail(start, "truncated or overlong count")
		}
		if w > 1 && body[off+w-1] == 0 {
			return fail(start, "non-minimal count")
		}
		off += w
		if c == 0 || c > MaxCount {
			return fail(start, "count %d outside [1, %d]", c, uint64(MaxCount))
		}
		if sum += c; sum > limit {
			return fail(start, "counts sum past the %d-occurrence bound", limit)
		}
		b.Keys = append(b.Keys, key)
		b.Counts = append(b.Counts, uint32(c))
	}
	b.Items = sum
	return nil
}

// AppendCountedRecord appends one counted-body triple for key occurring
// count times to buf — the encoder matching CountedBatch.Parse. count
// must be in [1, MaxCount] for the body to parse.
func AppendCountedRecord(buf []byte, key string, count uint32) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	return binary.AppendUvarint(buf, uint64(count))
}

// AppendBinaryRecord appends one length-prefixed record for key to buf —
// the encoder matching AppendBinaryKeys, shared by the client package
// and tests so both ends of the wire agree by construction.
func AppendBinaryRecord(buf []byte, key string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	return append(buf, key...)
}
