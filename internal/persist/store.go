package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Defaults applied by Open when Options fields are zero.
const (
	DefaultSegmentBytes   = 64 << 20
	DefaultMaxRecordBytes = 32<<20 + 4<<10 // a max-size ingest body + frame overhead
	DefaultFsyncInterval  = 100 * time.Millisecond
)

// FsyncMode selects when appended WAL records reach stable storage.
type FsyncMode int

const (
	// FsyncInterval syncs from a background ticker — the default; the
	// loss window after a power cut is bounded by Options.FsyncInterval.
	// (A plain process kill loses at most the unflushed buffer tail,
	// which replay drops as a torn record.)
	FsyncInterval FsyncMode = iota
	// FsyncAlways syncs every append before it returns: a record is on
	// stable storage before the caller applies it anywhere.
	FsyncAlways
	// FsyncRotate syncs only on segment rotation, snapshots and close.
	FsyncRotate
)

// Options configures a Store.
type Options struct {
	// Dir is the data directory; created (with its wal/ subdirectory)
	// if missing. Required.
	Dir string
	// SegmentBytes rotates the WAL past this size; 0 = 64 MiB.
	SegmentBytes int64
	// MaxRecordBytes bounds one record payload on both the write and
	// replay side; 0 = a 32 MiB ingest body plus frame overhead.
	MaxRecordBytes int
	// Fsync and FsyncInterval set the WAL sync policy.
	Fsync         FsyncMode
	FsyncInterval time.Duration
}

// Store owns one durability directory: the WAL writer, the committed
// snapshot, and the background fsync loop. Append methods are safe for
// concurrent use; WriteSnapshot serializes with itself.
type Store struct {
	dir       string
	opts      Options
	wal       *walWriter
	walDir    string
	firstSeg  uint64 // the boot segment's index: replay covers [0, firstSeg)
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	// snapMu serializes snapshot writes; epoch is the committed
	// snapshot epoch (0 = none), advancing by one per commit.
	snapMu sync.Mutex
	epoch  uint64 //hh:guardedby snapMu
}

// Open opens (creating if needed) the data directory and prepares the
// WAL writer; the first append creates the process's fresh segment. It
// does not read the snapshot or replay the log — recovery order
// (LoadSnapshot, then ReplayWAL, then serving) is the caller's, per
// docs/DURABILITY.md §5. When the WAL already holds segments, appends
// and BeginSnapshot fail until ReplayWAL has sealed its tail.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("persist: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.MaxRecordBytes <= 0 {
		opts.MaxRecordBytes = DefaultMaxRecordBytes
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	walDir := filepath.Join(opts.Dir, WALDirName)
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:    opts.Dir,
		opts:   opts,
		walDir: walDir,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	// Seed the epoch from the committed snapshot so the next write
	// advances past it.
	man, snapDir, err := ReadManifest(opts.Dir)
	if err != nil {
		return nil, err
	}
	if man != nil {
		if e, ok := snapEpoch(filepath.Base(snapDir)); ok {
			s.epoch = e
		}
	}
	wal, err := openWAL(walDir, opts.SegmentBytes, opts.MaxRecordBytes, opts.Fsync == FsyncAlways)
	if err != nil {
		return nil, err
	}
	s.wal = wal
	s.firstSeg = wal.seg //hh:unguarded construction time: the writer is not shared yet
	if opts.Fsync == FsyncInterval {
		go s.fsyncLoop()
	} else {
		close(s.done)
	}
	return s, nil
}

func (s *Store) fsyncLoop() {
	defer close(s.done)
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// A poisoned or closed writer keeps returning its sticky
			// error; the loop stays quiet and the appenders report it.
			_ = s.wal.sync()
		case <-s.stop:
			return
		}
	}
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// AppendBatch logs one ingested batch for name, allocating the next
// sequence number from seq on success. The body is built in place from
// keys in the uvarint batch format — no per-call allocation, which is
// what keeps the durable ingest hot path at 0 allocs/op. Call it
// before applying the batch to in-memory state: an error means the
// record is not durable and the batch must not be applied.
func (s *Store) AppendBatch(name string, seq *Seq, keys []string) error {
	return s.wal.append(KindBatch, seq, name, keys, nil)
}

// AppendCounted logs one ingested counted batch for name — the counted
// body (docs/WIRE.md, "Counted frames"), verbatim — allocating the next sequence
// number from seq on success. Like AppendBatch it builds the record in
// the writer's reused scratch, and the same apply-after-append rule
// holds: an error means the batch must not be applied.
func (s *Store) AppendCounted(name string, seq *Seq, body []byte) error {
	return s.wal.append(KindCounted, seq, name, nil, body)
}

// AppendBlob logs one accepted merge blob for name (the encoded
// HHSUM2/HHWIN2 bytes, verbatim), allocating the next sequence number
// from seq on success.
func (s *Store) AppendBlob(name string, seq *Seq, blob []byte) error {
	return s.wal.append(KindBlob, seq, name, nil, blob)
}

// AppendCreate logs a summary creation (spec is the JSON-encoded
// construction spec). Create records carry sequence 0 and replay as
// no-ops for names that already exist, so logging one per boot and per
// runtime creation is idempotent.
func (s *Store) AppendCreate(name string, spec []byte) error {
	return s.wal.append(KindCreate, nil, name, nil, spec)
}

// Sync forces buffered WAL records to stable storage.
func (s *Store) Sync() error { return s.wal.sync() }

// BeginSnapshot opens a WAL segment boundary for a snapshot and
// returns the new current segment's index: every record appended
// before the call lives below it. The caller then quiesces and
// captures each summary (so captured sequence numbers cover everything
// below the boundary) and hands the result to WriteSnapshot with this
// index.
func (s *Store) BeginSnapshot() (uint64, error) {
	return s.wal.rotate()
}

// ReplayWAL delivers every valid record in segments below the writer's
// boot segment to fn, in order. See ScanWAL for the torn-tail
// contract. A successful first replay then seals the tail: a torn final
// record is truncated away (a segment torn inside its header is
// removed) before the process's own segment exists, so a later boot
// never finds the tear in a non-final segment. The replay's own scan
// locates the tear, so the log is read once per boot. Safe to call
// repeatedly — later calls only read, and the consumer's sequence
// dedup makes re-delivery a no-op.
func (s *Store) ReplayWAL(fn func(Record) error) (ReplayReport, error) {
	rep, err := ScanWAL(s.walDir, s.firstSeg, s.opts.MaxRecordBytes, fn)
	if err != nil {
		return rep, err
	}
	return rep, s.wal.sealTail(rep)
}

// Close stops the fsync loop and flushes, syncs and closes the WAL.
// It does not write a snapshot — the registry decides whether a final
// snapshot precedes it.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.stop)
		<-s.done
		err = s.wal.close()
	})
	return err
}
