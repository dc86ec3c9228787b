package heavyhitters

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/spacesaving"
)

// Version-2 wire format: the codec behind Summary.Encode and Decode. It
// supersedes the v1 blob formats (EncodeSummary / EncodeWeightedSummary,
// still supported for existing files) by carrying everything a
// coordinator needs to keep querying with certain bounds after a
// decode:
//
//	magic "HHSUM2" | algo | flags | key kind | capacity uvarint |
//	mass f64 | slack f64 | absent slack f64 | [guarantee A f64, B f64] |
//	entry count uvarint | entries { key, count f64, err f64 }
//
// flags bit 0 records whether entry errs are certain overestimation
// bounds (the SPACESAVING convention); bit 1 whether the (A, B) k-tail
// guarantee fields are present. slack widens every decoded upper bound
// (a FREQUENT producer's undercounted mass); absent slack widens only
// the bounds of items the blob does not carry (a full SPACESAVING
// producer's minimum counter Δ — an evicted item can weigh up to Δ).
// Counts travel as IEEE-754 doubles so unit, integral-weighted and
// real-valued summaries share the format (unit counts are exact below
// 2^53). uint64 and string keys are supported — the two key types the
// tools and examples use.

var summaryMagicV2 = [6]byte{'H', 'H', 'S', 'U', 'M', '2'}

const (
	v2FlagOverEst      byte = 1 << 0
	v2FlagHasGuarantee byte = 1 << 1
)

// ErrUnsupportedSummary reports an Encode of a summary whose state is
// not portable (sketch backends) or whose key type has no wire form.
var ErrUnsupportedSummary = errors.New("heavyhitters: summary not encodable")

// keyKindFor maps the key type parameter to its wire tag (0 = no wire
// form).
func keyKindFor[K comparable]() byte {
	var zero K
	switch any(zero).(type) {
	case uint64:
		return keyKindUint64
	case string:
		return keyKindString
	default:
		return 0
	}
}

func writeKeyAny[K comparable](bw *bufio.Writer, k K) error {
	switch v := any(k).(type) {
	case uint64:
		return writeUvarint(bw, v)
	case string:
		if err := writeUvarint(bw, uint64(len(v))); err != nil {
			return err
		}
		_, err := bw.WriteString(v)
		return err
	default:
		return ErrUnsupportedSummary
	}
}

//hh:nopanic
func readKeyAny[K comparable](br *bufio.Reader) (K, error) {
	var zero K
	switch any(zero).(type) {
	case uint64:
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return zero, err
		}
		//hh:checked K is uint64 in this branch of the zero-value type switch
		return any(v).(K), nil
	case string:
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return zero, err
		}
		if n > 1<<20 {
			return zero, fmt.Errorf("%w: unreasonable key length %d", ErrBadSummary, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return zero, err
		}
		//hh:checked K is string in this branch of the zero-value type switch
		return any(string(buf)).(K), nil
	default:
		return zero, ErrUnsupportedSummary
	}
}

// Encode implements Summary.Encode: it writes the v2 wire form of the
// summary's counter state — a windowed frame (epoch ring, see
// codec_window.go) when the summary is an unsharded epoch-ring window,
// a flat frame otherwise. Sharded windows and decayed summaries flatten
// to a snapshot of their current aggregate. On a concurrent summary
// (WithConcurrent) Encode writes one consistent snapshot: an unsharded
// ring is framed under the write lock (writers wait for the duration —
// Encode is not on the lock-free read list), every other composition
// encodes a read snapshot covering every write completed before the
// call — never the bounded-stale fallback queries may serve, because a
// durable snapshot pins its blob to the current WAL sequence.
// Sketch-backed summaries and key types other than uint64 and string
// return ErrUnsupportedSummary.
func (s *summary[K]) Encode(w io.Writer) error {
	if !s.be.mergeable() {
		return fmt.Errorf("%w: %v is sketch-backed", ErrUnsupportedSummary, s.algo)
	}
	kind := keyKindFor[K]()
	if kind == 0 {
		return fmt.Errorf("%w: key type has no wire form (want uint64 or string)", ErrUnsupportedSummary)
	}
	be := s.be
	if ct, ok := be.(*concurrentTier[K]); ok {
		if wb, ok := ct.inner.(*windowBackend[K]); ok {
			// Keep the resumable ring frame: exclude writers while the
			// epochs are walked (encodeWindow's sync may also rotate, so
			// invalidate read snapshots afterwards).
			ct.wmu.Lock()
			err := encodeWindow(w, s.algo, kind, wb)
			ct.wmu.Unlock()
			ct.gen.Add(1)
			return err
		}
		be = ct.currentFresh()
	}
	if wb, ok := be.(*windowBackend[K]); ok {
		return encodeWindow(w, s.algo, kind, wb)
	}
	bw := bufio.NewWriter(w)
	if err := encodeFlatFrame(bw, s.algo, kind, be); err != nil {
		return err
	}
	return bw.Flush()
}

// encodeFlatFrame writes one flat v2 frame (magic through entries) for
// the backend's current counter state. It is the unit the windowed
// container reuses per epoch.
func encodeFlatFrame[K comparable](bw *bufio.Writer, algo Algo, kind byte, be backend[K]) error {
	var flags byte
	if be.overEst() {
		flags |= v2FlagOverEst
	}
	g, hasG := be.guarantee()
	if hasG {
		flags |= v2FlagHasGuarantee
	}
	entries := be.appendEntries(nil, -1)
	// A sharded summary stores up to shards×m counters; the encoded
	// capacity must hold them all so Decode reconstructs losslessly.
	// Raising the capacity would silently tighten the advertised k-tail
	// bound A·res/(C − B·k), so the constants are rescaled by the same
	// factor r = C/m: A·r·res/(r·m − B·r·k) equals the per-structure
	// bound exactly (each shard's sub-stream residual is at most the
	// full stream's, so the per-shard bound remains valid globally).
	capacity := be.capacity()
	if len(entries) > capacity {
		r := float64(len(entries)) / float64(capacity)
		capacity = len(entries)
		g.A *= r
		g.B *= r
	}
	if _, err := bw.Write(summaryMagicV2[:]); err != nil {
		return err
	}
	for _, b := range []byte{byte(algo), flags, kind} {
		if err := bw.WriteByte(b); err != nil {
			return err
		}
	}
	if err := writeUvarint(bw, uint64(capacity)); err != nil {
		return err
	}
	if err := writeFloat(bw, be.total()); err != nil {
		return err
	}
	if err := writeFloat(bw, be.slackOut()); err != nil {
		return err
	}
	if err := writeFloat(bw, be.absentExtra()); err != nil {
		return err
	}
	if hasG {
		if err := writeFloat(bw, g.A); err != nil {
			return err
		}
		if err := writeFloat(bw, g.B); err != nil {
			return err
		}
	}
	if err := writeUvarint(bw, uint64(len(entries))); err != nil {
		return err
	}
	for _, e := range entries {
		if err := writeKeyAny(bw, e.Item); err != nil {
			return err
		}
		if err := writeFloat(bw, e.Count); err != nil {
			return err
		}
		if err := writeFloat(bw, e.Err); err != nil {
			return err
		}
	}
	return nil
}

// BlobInfo is the header metadata SniffBlob reads off a v2 blob
// without decoding it: enough for a consumer holding bytes of unknown
// provenance — a tool reading stdin, a server accepting an upload — to
// route the blob to the right Decode instantiation.
type BlobInfo struct {
	// Algo is the producing algorithm recorded in the frame.
	Algo Algo
	// Windowed reports an epoch-ring container ("HHWIN2") rather than a
	// flat frame ("HHSUM2").
	Windowed bool
	// StringKeys reports string-keyed entries (Decode[string]); false
	// means uint64 keys (Decode[uint64]).
	StringKeys bool
}

// sniffHeaderLen is the prefix SniffBlob needs: magic, algo and the
// kind byte (offset 8 in flat frames, 7 in windowed containers).
const sniffHeaderLen = 9

// SniffBlob inspects the first bytes of a v2 summary blob (at least 9)
// and reports its header metadata. The second result is false when the
// prefix is too short, carries no v2 magic, or names an unknown key
// kind — the caller should fall back to other formats or reject the
// input. Sniffing validates only the header: Decode still performs the
// full validation.
//
//hh:nopanic
func SniffBlob(prefix []byte) (BlobInfo, bool) {
	if len(prefix) < sniffHeaderLen {
		return BlobInfo{}, false
	}
	var info BlobInfo
	var kind byte
	switch {
	case [6]byte(prefix[:6]) == summaryMagicV2:
		// magic | algo | flags | kind
		info.Algo, kind = Algo(prefix[6]), prefix[8]
	case [6]byte(prefix[:6]) == windowMagicV2:
		// magic | algo | kind | mode
		info.Algo, info.Windowed, kind = Algo(prefix[6]), true, prefix[7]
	default:
		return BlobInfo{}, false
	}
	switch kind {
	case keyKindUint64:
	case keyKindString:
		info.StringKeys = true
	default:
		return BlobInfo{}, false
	}
	return info, true
}

// Decode reconstructs a Summary from its v2 wire form, flat or
// windowed (the magic distinguishes them). A flat frame decodes to a
// summary backed by a weighted SPACESAVINGR structure holding the
// encoded counters with their error metadata and upper slack, so
// Estimate, EstimateBounds, Top, HeavyHitters, Recover and further
// Merge calls behave as on the producer (point estimates and bounds are
// preserved exactly; the reported Algorithm is the producer's). A
// windowed frame decodes to a live epoch ring (see codec_window.go).
// Mutating a decoded summary is supported through the weighted update
// path.
//
//hh:nopanic
func Decode[K comparable](r io.Reader) (Summary[K], error) {
	wantKind := keyKindFor[K]()
	if wantKind == 0 {
		return nil, fmt.Errorf("%w: key type has no wire form (want uint64 or string)", ErrUnsupportedSummary)
	}
	br := bufio.NewReader(r)
	var magic [6]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadSummary, err)
	}
	switch magic {
	case summaryMagicV2:
		algo, be, err := decodeFlatBody[K](br, wantKind)
		if err != nil {
			return nil, err
		}
		return newSummary(algo, be, keyHasher[K](0), false, true), nil
	case windowMagicV2:
		return decodeWindowBody[K](br, wantKind)
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrBadSummary)
	}
}

// decodeFlatBody reads one flat v2 frame after its magic and rebuilds
// the backend; the windowed container calls it once per epoch.
//
//hh:nopanic
func decodeFlatBody[K comparable](br *bufio.Reader, wantKind byte) (Algo, *weightedBackend[K], error) {
	var hdr [3]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: header: %v", ErrBadSummary, err)
	}
	algo, flags, kind := Algo(hdr[0]), hdr[1], hdr[2]
	if !algo.deterministic() {
		return 0, nil, fmt.Errorf("%w: algorithm %v has no portable state", ErrBadSummary, algo)
	}
	if kind != wantKind {
		return 0, nil, fmt.Errorf("%w: key kind %d, want %d", ErrBadSummary, kind, wantKind)
	}
	capacity, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: capacity: %v", ErrBadSummary, err)
	}
	// Encode raises the capacity to the entry count, so the entry bound
	// below makes this also the counter budget a well-formed producer
	// could have used; 2^24 counters is far beyond any real deployment.
	if capacity < 1 || capacity > 1<<24 {
		return 0, nil, fmt.Errorf("%w: unreasonable capacity %d", ErrBadSummary, capacity)
	}
	mass, err := readFiniteFloat(br, "mass")
	if err != nil {
		return 0, nil, err
	}
	slack, err := readFiniteFloat(br, "slack")
	if err != nil {
		return 0, nil, err
	}
	absent, err := readFiniteFloat(br, "absent slack")
	if err != nil {
		return 0, nil, err
	}
	if mass < 0 || slack < 0 || absent < 0 {
		return 0, nil, fmt.Errorf("%w: negative mass or slack", ErrBadSummary)
	}
	var g TailGuarantee
	hasG := flags&v2FlagHasGuarantee != 0
	if hasG {
		if g.A, err = readFiniteFloat(br, "guarantee A"); err != nil {
			return 0, nil, err
		}
		if g.B, err = readFiniteFloat(br, "guarantee B"); err != nil {
			return 0, nil, err
		}
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: entry count: %v", ErrBadSummary, err)
	}
	// No well-formed encoder emits more entries than counters (Encode
	// raises the written capacity to the entry count).
	if count > capacity {
		return 0, nil, fmt.Errorf("%w: entry count %d exceeds capacity %d", ErrBadSummary, count, capacity)
	}
	// Initial storage is sized by the bytes actually present, not the
	// declared counts: a tiny malicious blob cannot force a large
	// allocation, and honest blobs grow to their real size as entries
	// stream in.
	hint := int(count)
	if hint > 4096 {
		hint = 4096
	}
	//hh:checked capacity is validated to [1, 2^24] above and hint clamped to 4096, inside NewRSized's domain
	dst := spacesaving.NewRSized[K](int(capacity), hint)
	carryErr := flags&v2FlagOverEst != 0
	for i := uint64(0); i < count; i++ {
		item, err := readKeyAny[K](br)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: entry %d key: %v", ErrBadSummary, i, err)
		}
		c, err := readFiniteFloat(br, "entry count")
		if err != nil {
			return 0, nil, err
		}
		e, err := readFiniteFloat(br, "entry err")
		if err != nil {
			return 0, nil, err
		}
		if c < 0 || e < 0 {
			return 0, nil, fmt.Errorf("%w: negative entry values", ErrBadSummary)
		}
		if !carryErr {
			e = 0
		}
		dst.Absorb(item, c, e)
	}
	be := &weightedBackend[K]{ssr: dst, slack: slack, absentSlack: absent, g: g, hasG: hasG}
	// Carry the mass the stored counts undercount, so the decoded N() —
	// and the phi·N thresholds HeavyHitters derives from it — matches
	// the producer's.
	be.carryExtraMass(mass)
	return algo, be, nil
}

// FromBlob lifts a legacy v1 summary blob (DecodeSummary) onto the
// unified Summary surface with m counters, carrying the per-entry error
// metadata through. The v1 format does not record the producing
// algorithm, so entries are treated in the SPACESAVING convention
// (Err is a certain overestimation bound) — the convention of every v1
// producer in this repository. m < 1 sizes from the blob's capacity.
func FromBlob[K comparable](m int, blob *SummaryBlob[K]) Summary[K] {
	if m < 1 {
		m = blob.Capacity
	}
	if m < len(blob.Entries) {
		m = len(blob.Entries)
	}
	if m < 1 {
		m = 1
	}
	dst := NewSpaceSavingR[K](m)
	for _, e := range blob.Entries {
		dst.Absorb(e.Item, float64(e.Count), float64(e.Err))
	}
	be := &weightedBackend[K]{ssr: dst, g: TailGuarantee{A: 1, B: 1}, hasG: true}
	// Carry any stream mass the stored counts undercount, so N() matches
	// the producer's recorded stream length.
	be.carryExtraMass(float64(blob.N))
	return newSummary[K](AlgoSpaceSaving, be, keyHasher[K](0), false, true)
}

//hh:nopanic
func readFiniteFloat(br *bufio.Reader, field string) (float64, error) {
	v, err := readFloat(br)
	if err != nil {
		return 0, fmt.Errorf("%w: %s: %v", ErrBadSummary, field, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%w: non-finite %s", ErrBadSummary, field)
	}
	return v, nil
}
