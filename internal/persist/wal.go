package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// WAL segment framing (normative in docs/DURABILITY.md §3).
const (
	segMagic     = "HHWL" // segment file magic
	segVersion   = 0x01
	segHeaderLen = 8 // magic(4) + version(1) + reserved(3 zero bytes)
	recHeaderLen = 8 // payload length u32 LE + CRC32C u32 LE

	// MaxNameLen bounds the summary-name field of a record, matching
	// the registry's name grammar (docs/WIRE.md shares the bound).
	MaxNameLen = 128

	// minPayloadLen is kind(1) + seq(8) + nameLen(2) + 1-byte name.
	minPayloadLen = 12
)

// Record kinds (payload byte 0).
const (
	// KindBatch logs one ingested batch: the body is the uvarint
	// binary batch format of docs/WIRE.md §4 (the /update and hhwire
	// body), verbatim.
	KindBatch byte = 1
	// KindCreate logs a summary creation: the body is the JSON
	// heavyhitters.Spec; the sequence field is zero.
	KindCreate byte = 2
	// KindBlob logs an accepted /merge push: the body is the encoded
	// HHSUM2/HHWIN2 blob, verbatim.
	KindBlob byte = 3
)

// castagnoli is the CRC32C table every WAL and snapshot checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32C (Castagnoli) checksum over data — the one
// checksum function of the durability formats, exposed so tools
// (hhstat) and tests verify blobs without re-deriving the table.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// Seq is a per-summary monotonic sequence counter. The WAL advances it
// under its append lock exactly when a record is durably buffered, so
// a sequence number is allocated to one record only. The value is
// atomically readable anywhere (metrics), but a read is only a
// consistent cut of the summary's state while the owner's quiesce
// lock excludes appenders — the invariant snapshot capture relies on.
type Seq struct{ n atomic.Uint64 }

// Load returns the last allocated sequence number (0 = none yet).
func (s *Seq) Load() uint64 { return s.n.Load() }

// Store resets the counter — recovery seeds it from the snapshot
// manifest and advances it per replayed record.
func (s *Seq) Store(v uint64) { s.n.Store(v) }

// Record is one decoded WAL record. Name and Body alias the scanner's
// read buffer and are valid only for the duration of the callback;
// consumers copy what they retain (the registry's summaries are built
// with borrowed-key ingest for exactly this shape).
type Record struct {
	Kind byte
	Seq  uint64
	Name []byte
	Body []byte
}

// EncodeRecord appends the framed wire form of one record to dst and
// returns the extended slice: the 8-byte header (payload length,
// CRC32C) followed by the payload (kind, seq, name length, name,
// body). It is the write-side counterpart of ParseRecordPayload and
// exactly what the Store's appenders emit.
func EncodeRecord(dst []byte, kind byte, seq uint64, name string, body []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	dst = append(dst, body...)
	payload := dst[start+recHeaderLen:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], Checksum(payload))
	return dst
}

// ParseRecordPayload decodes one record payload (the bytes the frame
// header's CRC covers). It is total: any input either decodes or
// returns an error, never panics — a CRC-valid payload that fails here
// indicates corruption (or a foreign writer), not a torn write.
func ParseRecordPayload(payload []byte) (Record, error) {
	if len(payload) < minPayloadLen {
		return Record{}, fmt.Errorf("record payload %d bytes, want >= %d", len(payload), minPayloadLen)
	}
	kind := payload[0]
	if kind != KindBatch && kind != KindCreate && kind != KindBlob {
		return Record{}, fmt.Errorf("unknown record kind %d", kind)
	}
	seq := binary.LittleEndian.Uint64(payload[1:9])
	if kind == KindCreate && seq != 0 {
		return Record{}, fmt.Errorf("create record carries sequence %d, want 0", seq)
	}
	nameLen := int(binary.LittleEndian.Uint16(payload[9:11]))
	if nameLen < 1 || nameLen > MaxNameLen {
		return Record{}, fmt.Errorf("record name length %d, want 1..%d", nameLen, MaxNameLen)
	}
	if len(payload) < 11+nameLen {
		return Record{}, fmt.Errorf("record payload %d bytes truncates %d-byte name", len(payload), nameLen)
	}
	return Record{
		Kind: kind,
		Seq:  seq,
		Name: payload[11 : 11+nameLen],
		Body: payload[11+nameLen:],
	}, nil
}

// walWriter is the single append point of a Store's WAL. A fresh
// segment is opened per process lifetime (the writer never appends to
// a pre-existing file), so replay order is segment index, then file
// offset. The process's segment is created by its first append, once
// sealTail has made the segments before it complete.
type walWriter struct {
	dir        string
	segBytes   int64
	maxRecord  int
	alwaysSync bool

	mu sync.Mutex
	// f is the open segment: nil before the first append of the process
	// and after close.
	f          *os.File      //hh:guardedby mu
	bw         *bufio.Writer //hh:guardedby mu
	seg        uint64        //hh:guardedby mu
	segWritten int64         //hh:guardedby mu
	scratch    []byte        //hh:guardedby mu
	dirty      bool          //hh:guardedby mu
	err        error         //hh:guardedby mu
	// sealed reports that the segments before seg are complete on disk,
	// so seg may be created: true from the start on an empty directory,
	// otherwise set by sealTail.
	sealed bool //hh:guardedby mu
}

func segmentName(index uint64) string {
	return fmt.Sprintf("wal-%016x.log", index)
}

// segmentIndex parses a segment file name; ok is false for foreign
// files (temp files, editor droppings), which the WAL ignores.
func segmentIndex(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

type segmentFile struct {
	index uint64
	path  string
}

func listSegments(dir string) ([]segmentFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentFile
	for _, de := range ents {
		if idx, ok := segmentIndex(de.Name()); ok {
			segs = append(segs, segmentFile{index: idx, path: filepath.Join(dir, de.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	return segs, nil
}

// openWAL scans dir for existing segments and prepares a writer whose
// first append creates a fresh segment after the highest index found.
func openWAL(dir string, segBytes int64, maxRecord int, alwaysSync bool) (*walWriter, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if len(segs) > 0 {
		next = segs[len(segs)-1].index + 1
	}
	return &walWriter{
		dir:        dir,
		segBytes:   segBytes,
		maxRecord:  maxRecord,
		alwaysSync: alwaysSync,
		seg:        next,
		sealed:     len(segs) == 0,
	}, nil
}

// errUnsealed rejects appends and snapshot boundaries before replay has
// sealed the newest existing segment.
var errUnsealed = errors.New("persist: WAL not replayed: its tail is unsealed")

// sealTail makes the newest pre-boot segment complete on disk, given
// the report of a replay that scanned it: a torn tail is truncated away
// and fsynced, and a segment torn inside its header is removed and the
// directory fsynced. A successor must not exist before this — the next
// boot would find the tear in a non-final segment and refuse the
// directory as corrupt — so until it runs appends fail and no segment
// is created, and a crash meanwhile leaves the torn segment final,
// which the next replay tolerates. Later calls are no-ops: the tail was
// cut the first time, and the process's own segment may exist by then.
func (w *walWriter) sealTail(rep ReplayReport) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sealed {
		return nil
	}
	if rep.Torn {
		path := filepath.Join(w.dir, rep.TornSegment)
		if rep.TornOffset == 0 {
			if err := os.Remove(path); err != nil {
				return err
			}
			if err := syncDir(w.dir); err != nil {
				return err
			}
		} else if err := truncateSync(path, rep.TornOffset); err != nil {
			return err
		}
	}
	w.sealed = true
	return nil
}

// truncateSync cuts the file at path to size bytes and fsyncs it.
func truncateSync(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// createSegmentLocked opens segment w.seg and writes its header. The
// header goes through an unbuffered write so the file is well-formed
// (if present at all) from the first moment; the directory entry is
// fsynced so the segment survives a power cut.
//
//hh:locked mu
func (w *walWriter) createSegmentLocked() error {
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(w.seg)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:], segMagic)
	hdr[4] = segVersion
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	if w.bw == nil {
		w.bw = bufio.NewWriterSize(f, 64<<10)
	} else {
		w.bw.Reset(f)
	}
	w.segWritten = segHeaderLen
	return nil
}

// append frames and writes one record, advancing seq on success. When
// keys is non-nil the body is built in place as the uvarint batch
// format (no intermediate buffer — the ingest hot path's zero-alloc
// contract); otherwise body is copied verbatim. Any I/O failure
// poisons the writer: a partial buffered write has no resync point, so
// later appends would corrupt the stream mid-segment.
func (w *walWriter) append(kind byte, seq *Seq, name string, keys []string, body []byte) error {
	if len(name) < 1 || len(name) > MaxNameLen {
		return fmt.Errorf("persist: record name %q: length %d, want 1..%d", name, len(name), MaxNameLen)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		if !w.sealed {
			return errUnsealed
		}
		if err := w.createSegmentLocked(); err != nil {
			w.err = err
			return err
		}
	}
	var s uint64
	if seq != nil {
		s = seq.Load() + 1
	}
	b := append(w.scratch[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	b = append(b, kind)
	b = binary.LittleEndian.AppendUint64(b, s)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	if keys != nil {
		for _, k := range keys {
			b = binary.AppendUvarint(b, uint64(len(k)))
			b = append(b, k...)
		}
	} else {
		b = append(b, body...)
	}
	w.scratch = b
	payload := b[recHeaderLen:]
	if len(payload) > w.maxRecord {
		return fmt.Errorf("persist: record %d bytes exceeds the %d-byte bound", len(payload), w.maxRecord)
	}
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], Checksum(payload))
	if _, err := w.bw.Write(b); err != nil {
		w.err = err
		return err
	}
	w.segWritten += int64(len(b))
	w.dirty = true
	if w.alwaysSync {
		if err := w.syncLocked(); err != nil {
			w.err = err
			return err
		}
	}
	if seq != nil {
		seq.Store(s)
	}
	if w.segWritten >= w.segBytes {
		if err := w.rotateLocked(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

//hh:locked mu
func (w *walWriter) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.dirty = false
	return nil
}

// rotateLocked finishes the current segment (flush + fsync + close —
// a finished segment is complete on disk before its successor exists,
// which is what lets replay treat mid-segment corruption as fatal) and
// opens the next.
//
//hh:locked mu
func (w *walWriter) rotateLocked() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	w.dirty = false
	w.f = nil
	w.seg++
	return w.createSegmentLocked()
}

// rotate forces a segment boundary and returns the new current
// segment's index: every record appended before the call lives in a
// segment with a strictly smaller index. Before the process's first
// append, the boundary is the segment that append will create.
func (w *walWriter) rotate() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.f == nil {
		if !w.sealed {
			return 0, errUnsealed
		}
		return w.seg, nil
	}
	if err := w.rotateLocked(); err != nil {
		w.err = err
		return 0, err
	}
	return w.seg, nil
}

func (w *walWriter) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.f == nil {
		return nil
	}
	if err := w.syncLocked(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// pruneBefore removes every segment with index < before (never the
// writer's current segment). Called after a snapshot commits: the
// removed records are covered by the manifest's sequence numbers.
func (w *walWriter) pruneBefore(before uint64) (int, error) {
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0, err
	}
	w.mu.Lock()
	cur := w.seg
	w.mu.Unlock()
	removed := 0
	for _, sg := range segs {
		if sg.index >= before || sg.index == cur {
			continue
		}
		if err := os.Remove(sg.path); err != nil {
			return removed, err
		}
		removed++
	}
	if removed > 0 {
		if err := syncDir(w.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		if w.err == nil {
			w.err = fmt.Errorf("persist: WAL is closed")
			return nil
		}
		return w.err
	}
	err := w.syncLocked()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	if w.err == nil {
		w.err = fmt.Errorf("persist: WAL is closed")
		return err
	}
	return err
}

// SegmentReport is the outcome of scanning one WAL segment.
type SegmentReport struct {
	// Records counts the valid records delivered to the callback.
	Records int
	// Torn reports that the segment ended in a partially written
	// record (or header); TornOffset is the byte offset of the torn
	// frame. Everything before it was delivered.
	Torn       bool
	TornOffset int64
}

// ScanSegment reads one WAL segment stream, delivering each valid
// record to fn; Record fields alias an internal buffer reused between
// callbacks. maxRecord bounds a record payload (use the writer's
// bound; an over-long length field is treated as invalid, which keeps
// a torn length word from forcing a giant allocation).
//
// tolerateTorn selects the final-segment contract: an invalid frame
// (short header, bad length, short payload, CRC mismatch) stops the
// scan and is reported as a torn tail. With tolerateTorn false the
// same condition is an error — a non-final segment was fsynced
// complete by rotation, so damage there is corruption, not a crash
// artifact. A payload whose CRC verifies but fails ParseRecordPayload
// is always an error.
func ScanSegment(r io.Reader, maxRecord int, tolerateTorn bool, fn func(Record) error) (SegmentReport, error) {
	var rep SegmentReport
	torn := func(at int64, what string) (SegmentReport, error) {
		if !tolerateTorn {
			return rep, fmt.Errorf("%s at offset %d", what, at)
		}
		rep.Torn = true
		rep.TornOffset = at
		return rep, nil
	}
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return torn(0, "truncated segment header")
		}
		return rep, err
	}
	if string(hdr[:4]) != segMagic {
		return rep, fmt.Errorf("bad segment magic %q", hdr[:4])
	}
	if hdr[4] != segVersion {
		return rep, fmt.Errorf("unsupported segment version %d", hdr[4])
	}
	if hdr[5] != 0 || hdr[6] != 0 || hdr[7] != 0 {
		return rep, fmt.Errorf("nonzero reserved segment-header bytes")
	}
	off := int64(segHeaderLen)
	var rh [recHeaderLen]byte
	var buf []byte
	for {
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			if err == io.EOF {
				return rep, nil // clean end between records
			}
			if err == io.ErrUnexpectedEOF {
				return torn(off, "truncated record header")
			}
			return rep, err
		}
		length := binary.LittleEndian.Uint32(rh[0:4])
		want := binary.LittleEndian.Uint32(rh[4:8])
		if length < minPayloadLen || int64(length) > int64(maxRecord) {
			return torn(off, fmt.Sprintf("record length %d out of range", length))
		}
		if cap(buf) < int(length) {
			buf = make([]byte, length)
		}
		buf = buf[:length]
		if _, err := io.ReadFull(br, buf); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return torn(off, "truncated record payload")
			}
			return rep, err
		}
		if Checksum(buf) != want {
			return torn(off, "record CRC mismatch")
		}
		rec, err := ParseRecordPayload(buf)
		if err != nil {
			// CRC-valid but structurally invalid: not a torn write.
			return rep, fmt.Errorf("invalid record at offset %d: %w", off, err)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return rep, err
			}
		}
		rep.Records++
		off += recHeaderLen + int64(length)
	}
}

// ReplayReport summarizes a WAL directory scan.
type ReplayReport struct {
	// Segments and Records count what was scanned and delivered.
	Segments int
	Records  int
	// Torn reports a torn tail in the final segment; TornSegment is
	// its file name and TornOffset the offset of the torn frame.
	Torn        bool
	TornSegment string
	TornOffset  int64
}

// ScanWAL replays a WAL directory in segment order, delivering every
// valid record to fn. Segments with index >= before are skipped
// (before == 0 scans everything) — the Store passes its writer's
// segment index so a replay never observes records the recovering
// process itself is appending. Only the final scanned segment may end
// in a torn record; an invalid frame anywhere else fails the scan.
func ScanWAL(dir string, before uint64, maxRecord int, fn func(Record) error) (ReplayReport, error) {
	var rep ReplayReport
	segs, err := listSegments(dir)
	if err != nil {
		return rep, err
	}
	if before > 0 {
		n := 0
		for _, sg := range segs {
			if sg.index < before {
				segs[n] = sg
				n++
			}
		}
		segs = segs[:n]
	}
	for i, sg := range segs {
		final := i == len(segs)-1
		f, err := os.Open(sg.path)
		if err != nil {
			return rep, err
		}
		srep, err := ScanSegment(f, maxRecord, final, fn)
		f.Close()
		rep.Segments++
		rep.Records += srep.Records
		if err != nil {
			return rep, fmt.Errorf("persist: %s: %w", filepath.Base(sg.path), err)
		}
		if srep.Torn {
			rep.Torn = true
			rep.TornSegment = filepath.Base(sg.path)
			rep.TornOffset = srep.TornOffset
		}
	}
	return rep, nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable (the POSIX contract behind the snapshot commit protocol).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
