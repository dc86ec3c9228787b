package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	hh "repro"
	"repro/internal/persist"
)

// This file is the registry side of durability: recovery on boot
// (committed snapshot, then WAL tail, with per-summary sequence
// dedup), the WAL hooks the ingest paths call through Entry, and the
// periodic/final snapshot writer. The on-disk formats live in
// internal/persist and are normative in docs/DURABILITY.md.

// RecoveryReport is what New's recovery pass found — hhserverd prints
// it at boot so an operator can see exactly what state survived.
type RecoveryReport struct {
	// Enabled is false without a durability stanza (the zero report).
	Enabled bool
	// DataDir is the resolved data directory.
	DataDir string
	// Snapshot is the committed snapshot directory name ("" when the
	// store had none).
	Snapshot string
	// WAL summarizes the tail replay: segments and records scanned,
	// and whether the final segment ended in a torn record (the normal
	// artifact of kill -9 — reported, tolerated, truncated).
	WAL persist.ReplayReport
	// Summaries describes each recovered summary.
	Summaries []RecoveredSummary
	// ReplayedBatches/ReplayedItems/ReplayedBlobs count applied tail
	// records; Deduped counts records skipped because the snapshot (or
	// an earlier replay) already covered their sequence numbers;
	// SkippedCreates counts create records for names that already
	// existed; Unroutable counts records for names with no durable
	// summary (a stanza removed or flipped ephemeral between lives).
	ReplayedBatches int
	ReplayedItems   int
	ReplayedBlobs   int
	Deduped         int
	SkippedCreates  int
	Unroutable      int
	// SnapshotLoad and WALReplay time the two recovery phases: reading,
	// verifying and absorbing the committed snapshot, then scanning,
	// applying and sealing the WAL tail.
	SnapshotLoad time.Duration
	WALReplay    time.Duration
}

// RecoveredSummary is one summary's recovery outcome.
type RecoveredSummary struct {
	Name string
	// Seq is the summary's WAL sequence after recovery (snapshot pin
	// plus replayed tail); Mass its recovered stream mass.
	Seq  uint64
	Mass float64
	// FromSnapshot reports whether a snapshot blob seeded the state
	// (false = rebuilt from the WAL alone).
	FromSnapshot bool
}

// SnapshotReport describes one committed snapshot.
type SnapshotReport struct {
	// Summaries is the number of summaries captured; Skipped reports an
	// unchanged registry short-circuiting the write.
	Summaries int
	Skipped   bool
	When      time.Time
}

// Recovery returns the boot recovery report (zero when durability is
// off).
func (r *Registry) Recovery() RecoveryReport { return r.recovery }

// Durable reports whether the registry persists state.
func (r *Registry) Durable() bool { return r.store != nil }

// openDurability opens the persist store and runs recovery: load the
// committed snapshot, recreate its summaries with their pinned
// sequence numbers and decoded blobs as merge bases, then replay the
// WAL tail with sequence dedup. Called from New before the config
// stanzas are reconciled.
func (r *Registry) openDurability(spec hh.DurabilitySpec, maxBody int64) error {
	res, err := spec.Resolve()
	if err != nil {
		return err
	}
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	mode := persist.FsyncInterval
	switch res.Fsync {
	case hh.FsyncAlways:
		mode = persist.FsyncAlways
	case hh.FsyncRotate:
		mode = persist.FsyncRotate
	}
	store, err := persist.Open(persist.Options{
		Dir:            res.Dir,
		SegmentBytes:   res.SegmentBytes,
		MaxRecordBytes: int(maxBody) + persist.MaxNameLen + 128,
		Fsync:          mode,
		FsyncInterval:  res.FsyncInterval,
	})
	if err != nil {
		return err
	}
	r.store = store
	r.snapEvery = res.SnapshotInterval
	r.recovery = RecoveryReport{Enabled: true, DataDir: res.Dir}

	start := time.Now()
	man, snapDir, blobs, err := store.LoadSnapshot()
	if err != nil {
		return err
	}
	if man != nil {
		r.recovery.Snapshot = snapDir
		for _, ms := range man.Summaries {
			var sp hh.Spec
			if err := json.Unmarshal(ms.Spec, &sp); err != nil {
				return fmt.Errorf("manifest spec for %q: %w", ms.Name, err)
			}
			e, err := r.create(ms.Name, sp, false)
			if err != nil {
				return fmt.Errorf("recreating %q: %w", ms.Name, err)
			}
			blob := blobs[ms.Name]
			// Cross-check the blob against the manifest before the full
			// decode: the sniffable header names the algorithm and key
			// kind, so a swapped file fails here with a precise message
			// rather than a decoder error.
			info, ok := hh.SniffBlob(blob)
			if !ok {
				return fmt.Errorf("snapshot blob for %q: unrecognized blob header", ms.Name)
			}
			if !info.StringKeys {
				return fmt.Errorf("snapshot blob for %q: uint64-keyed blob in a string-keyed registry", ms.Name)
			}
			if ms.Algorithm != "" && info.Algo.String() != ms.Algorithm {
				return fmt.Errorf("snapshot blob for %q: %v blob, manifest says %s", ms.Name, info.Algo, ms.Algorithm)
			}
			dec, err := hh.Decode[string](bytes.NewReader(blob))
			if err != nil {
				return fmt.Errorf("decoding snapshot blob for %q: %w", ms.Name, err)
			}
			if _, err := e.absorbDecoded(dec, false); err != nil {
				return fmt.Errorf("restoring %q: %w", ms.Name, err)
			}
			e.walSeq.Store(ms.Seq)
		}
	}
	r.recovery.SnapshotLoad = time.Since(start)
	// The replay pass, and with it the decode scratch and the key views
	// into the scanner's buffers, is dropped when the scan returns.
	start = time.Now()
	rep, err := store.ReplayWAL((&replay{r: r}).applyRecord)
	r.recovery.WALReplay = time.Since(start)
	r.recovery.WAL = rep
	if err != nil {
		return err
	}
	for _, name := range r.Names() {
		e, _ := r.Get(name)
		if !e.durable {
			continue
		}
		if err := e.logCreate(); err != nil {
			return err
		}
		_, fromSnap := blobs[name]
		r.recovery.Summaries = append(r.recovery.Summaries, RecoveredSummary{
			Name:         name,
			Seq:          e.walSeq.Load(),
			Mass:         e.recoveredMass(),
			FromSnapshot: fromSnap,
		})
	}
	return nil
}

// recoveredMass is the entry's total mass (live + merge bases) —
// recovery-time bookkeeping, not a hot path.
func (e *Entry) recoveredMass() float64 {
	e.mergeMu.Lock()
	remote := e.remoteMass
	e.mergeMu.Unlock()
	return e.live.N() + remote
}

// replay is one WAL replay pass: the registry it recovers into, plus
// the decode scratch its batch and counted records share, so replaying
// them allocates nothing per record. The keys in the scratch are
// borrowed views into the scanner's read buffer (the summaries clone
// what they retain), valid only inside one applyRecord call.
type replay struct {
	r       *Registry
	keys    []string
	counted CountedBatch
}

// applyRecord consumes one replayed WAL record. Replay is at least
// once: a record may be covered by the snapshot, or delivered again if
// a tail is replayed twice, so every apply is gated on the record's
// sequence exceeding the summary's — which makes double replay a
// structural no-op (the replay-idempotence property the e2e crash test
// pins end to end).
func (p *replay) applyRecord(rec persist.Record) error {
	r := p.r
	switch rec.Kind {
	case persist.KindCreate:
		name := string(rec.Name)
		if _, ok := r.Get(name); ok {
			r.recovery.SkippedCreates++
			return nil
		}
		var sp hh.Spec
		if err := json.Unmarshal(rec.Body, &sp); err != nil {
			return fmt.Errorf("create record for %q: %w", name, err)
		}
		if _, err := r.create(name, sp, false); err != nil {
			return fmt.Errorf("replaying creation of %q: %w", name, err)
		}
		return nil
	case persist.KindBatch, persist.KindCounted:
		// The lookup only reads the name, so a view of the record's bytes
		// serves it without a copy.
		e, ok := r.Get(unsafeString(rec.Name))
		if !ok || !e.durable {
			r.recovery.Unroutable++
			return nil
		}
		if rec.Seq <= e.walSeq.Load() {
			r.recovery.Deduped++
			return nil
		}
		// The wire's parsers and apply path, borrowing keys straight off
		// the record buffer (the live summary clones what it retains): a
		// record replays exactly as its frame was ingested.
		var (
			keys  []string
			b     *CountedBatch
			items int
			err   error
			what  = "batch"
		)
		if rec.Kind == persist.KindBatch {
			p.keys, err = AppendBinaryKeysBorrowed(p.keys[:0], rec.Body)
			keys, items = p.keys, len(p.keys)
		} else {
			b, what = &p.counted, "counted"
			err = b.Parse(rec.Body, r.maxBody)
			items = int(b.Items)
		}
		if err != nil {
			return fmt.Errorf("%s record for %q (seq %d): %w", what, rec.Name, rec.Seq, err)
		}
		e.apply(keys, b)
		e.walSeq.Store(rec.Seq)
		r.recovery.ReplayedBatches++
		r.recovery.ReplayedItems += items
		return nil
	case persist.KindBlob:
		e, ok := r.Get(unsafeString(rec.Name))
		if !ok || !e.durable {
			r.recovery.Unroutable++
			return nil
		}
		if rec.Seq <= e.walSeq.Load() {
			r.recovery.Deduped++
			return nil
		}
		dec, err := hh.Decode[string](bytes.NewReader(rec.Body))
		if err != nil {
			return fmt.Errorf("blob record for %q (seq %d): %w", rec.Name, rec.Seq, err)
		}
		if _, err := e.absorbDecoded(dec, false); err != nil {
			return fmt.Errorf("blob record for %q (seq %d): %w", rec.Name, rec.Seq, err)
		}
		e.walSeq.Store(rec.Seq)
		r.recovery.ReplayedBlobs++
		return nil
	}
	return fmt.Errorf("unknown record kind %d", rec.Kind)
}

// snapshotLoop drives periodic snapshots until Close or Halt.
func (r *Registry) snapshotLoop() {
	defer close(r.snapDone)
	t := time.NewTicker(r.snapEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := r.Snapshot(); err != nil {
				fmt.Fprintf(os.Stderr, "registry: snapshot: %v\n", err)
			}
		case <-r.snapStop:
			return
		}
	}
}

// changeSig is a cheap signature of persisted state: the sum of every
// durable summary's WAL sequence and merge generation. Equal signature
// ⇒ no durable record was appended since the last snapshot, so the
// periodic loop skips the disk write (an idle daemon does not churn
// snapshot epochs).
func (r *Registry) changeSig() uint64 {
	var sig uint64
	for _, name := range r.Names() {
		if e, ok := r.Get(name); ok && e.durable {
			sig += e.walSeq.Load() + e.mergeGen.Load() + 1
		}
	}
	return sig
}

// Snapshot writes one atomic snapshot of every durable summary and
// prunes the WAL behind it. Capture order per summary: take the
// quiesce lock (no {WAL append, apply} pair is in flight), read the
// sequence pin, encode the union view — so the blob is exactly the
// state of sequences 1..pin, the invariant replay dedup rests on.
// Serialized with itself; a no-op (Skipped) when nothing durable
// changed since the last commit.
func (r *Registry) Snapshot() (SnapshotReport, error) {
	if r.store == nil {
		return SnapshotReport{}, fmt.Errorf("registry: durability is not enabled")
	}
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	sig := r.changeSig()
	if sig == r.lastSig {
		return SnapshotReport{Skipped: true, When: time.Now()}, nil
	}
	boundary, err := r.store.BeginSnapshot()
	if err != nil {
		return SnapshotReport{}, err
	}
	var snaps []persist.SummarySnapshot
	for _, name := range r.Names() {
		e, ok := r.Get(name)
		if !ok || !e.durable {
			continue
		}
		sn, err := e.capture()
		if err != nil {
			return SnapshotReport{}, fmt.Errorf("capturing %q: %w", name, err)
		}
		snaps = append(snaps, sn)
	}
	if err := r.store.WriteSnapshot(boundary, snaps); err != nil {
		return SnapshotReport{}, err
	}
	r.lastSig = sig
	rep := SnapshotReport{Summaries: len(snaps), When: time.Now()}
	r.lastSnap = rep
	return rep, nil
}

// capture encodes one summary's state under the quiesce lock. It
// builds the persisted summary directly rather than through the cached
// View: the cache may serve a bounded-stale snapshot during a
// concurrent rebuild, and a stale blob under an exact sequence pin
// would silently drop the difference on replay.
func (e *Entry) capture() (persist.SummarySnapshot, error) {
	e.durMu.Lock()
	defer e.durMu.Unlock()
	seq := e.walSeq.Load()
	// src is either the live summary (concurrent tier: its Encode pins a
	// snapshot covering every applied batch — ingest is quiesced anyway)
	// or a private merge result; no further locking needed.
	src, err := e.union()
	if err != nil {
		return persist.SummarySnapshot{}, err
	}
	var buf bytes.Buffer
	if err := src.Encode(&buf); err != nil {
		return persist.SummarySnapshot{}, err
	}
	specJSON, err := json.Marshal(e.spec)
	if err != nil {
		return persist.SummarySnapshot{}, err
	}
	sn := persist.SummarySnapshot{
		Name:      e.name,
		Spec:      specJSON,
		Seq:       seq,
		N:         src.N(),
		Len:       src.Len(),
		Algorithm: e.algo.String(),
		Blob:      buf.Bytes(),
	}
	if g, ok := src.Guarantee(); ok {
		sn.Guarantee = &persist.ManifestGuarantee{A: g.A, B: g.B}
	}
	return sn, nil
}

// Close stops the snapshot loop, writes a final snapshot (the drain
// path: a graceful shutdown restarts from the snapshot alone, with an
// empty WAL tail), and closes the store. No-op without durability.
func (r *Registry) Close() error {
	if r.store == nil {
		return nil
	}
	var err error
	r.closeOnce.Do(func() {
		close(r.snapStop)
		<-r.snapDone
		if _, serr := r.Snapshot(); serr != nil {
			err = serr
		}
		if cerr := r.store.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// Halt stops the snapshot loop and closes the store WITHOUT a final
// snapshot: buffered WAL records are flushed and synced, nothing else
// is written. The next boot recovers from the last committed snapshot
// plus the WAL tail — the same path a crash exercises, minus the torn
// tail — which is what makes Halt useful for failover drills and
// in-process recovery tests. No-op without durability.
func (r *Registry) Halt() error {
	if r.store == nil {
		return nil
	}
	var err error
	r.closeOnce.Do(func() {
		close(r.snapStop)
		<-r.snapDone
		err = r.store.Close()
	})
	return err
}

// LastSnapshot returns the most recent snapshot report (zero until the
// first periodic snapshot commits).
func (r *Registry) LastSnapshot() SnapshotReport {
	r.snapMu.Lock()
	defer r.snapMu.Unlock()
	return r.lastSnap
}
