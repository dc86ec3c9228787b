// Command hhstat computes exact statistics of a stream file: the norms
// and residuals the paper's bounds are expressed in, a Zipf-parameter fit
// (log-log rank/frequency regression), and the Theorem 8 counter budget
// the fit suggests for a target error rate.
//
// Usage:
//
//	hhstat stream.bin
//	hhstat -k 20 -eps 0.001 stream.bin
//	hhstat worker.sum
//	curl -s http://hhserverd:8070/v1/queries/encode | hhstat -
//	hhstat /var/lib/hhserverd              # durability data directory
//	hhstat /var/lib/hhserverd/wal/wal-0000000000000003.log
//	hhstat /var/lib/hhserverd/snap-0000000000000002/MANIFEST.json
//
// "-" reads from standard input, so server snapshots pipe straight in.
//
// This is the "sizing" companion to hhcli: run hhstat on a representative
// trace to pick m, then deploy hhcli (or the library) with that budget.
//
// Summary blobs are detected by magic and reported too: a flat "HHSUM2"
// frame or a windowed "HHWIN2" container (hhcli -dump, hhserverd's
// /encode endpoint), uint64- or string-keyed — the key kind is sniffed
// — decodes through the library codec, the windowed ring flattening to
// its covered suffix, and hhstat prints the summary-derived statistics:
// covered mass, tracked items, the Theorem 6 residual estimate and the
// advertised k-tail bound. Unlike a raw stream, a summary cannot yield
// exact norms or a Zipf fit; rerun on the original trace for sizing.
//
// hhserverd durability artifacts (docs/DURABILITY.md) are recognized as
// well, read-only and safe against a live daemon: a directory argument
// is inspected as a data directory (committed snapshot manifest with
// every blob re-verified against its size and CRC32C, WAL segment
// count, per-summary covered sequences, tail health); a file beginning
// with the "HHWL" magic is scanned as a single WAL segment; a JSON file
// whose format field is "hhsnap/v1" prints as a snapshot manifest.
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"

	hh "repro"
	"repro/internal/arena"
	"repro/internal/exact"
	"repro/internal/persist"
	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/zipfmath"
)

// reportSummary prints the statistics derivable from a decoded summary
// blob (flat or windowed, either key kind).
func reportSummary[K comparable](s hh.Summary[K], k int) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "summary blob (%s)\t\n", s.Algorithm())
	if ws, ok := s.Window(); ok {
		kind := fmt.Sprintf("%d items per epoch", ws.EpochLen)
		if ws.Tick > 0 {
			kind = fmt.Sprintf("%v per epoch", ws.Tick/time.Duration(ws.Epochs))
		}
		fmt.Fprintf(tw, "window\t%d/%d epochs live, %s\n", ws.Live, ws.Epochs, kind)
		fmt.Fprintf(tw, "covered mass\t%.1f\n", ws.Covered)
	} else {
		fmt.Fprintf(tw, "processed mass N\t%.1f\n", s.N())
	}
	fmt.Fprintf(tw, "tracked items\t%d of %d counters\n", s.Len(), s.Capacity())
	if top := s.TopAppend(nil, 1); len(top) > 0 {
		lo, hi := s.EstimateBounds(top[0].Item)
		fmt.Fprintf(tw, "heaviest item\t%v (estimate %.1f, f in [%.1f, %.1f])\n", top[0].Item, top[0].Count, lo, hi)
	}
	res := hh.SummaryResidual(s, k)
	fmt.Fprintf(tw, "estimated F1^res(%d)\t<= %.1f\n", k, res)
	if g, ok := s.Guarantee(); ok {
		fmt.Fprintf(tw, "k-tail error bound\t%.1f\n", hh.ErrorBound(g, s.Capacity(), k, res))
	}
	// For string-keyed blobs, the steady-state footprint this summary
	// would occupy hosted arena-backed (hhserverd's configuration):
	// class-rounded slab bytes for the stored keys plus the
	// open-addressing index sized for the counter budget.
	var keyBytes uint64
	strKeys := false
	for e := range s.All() {
		ks, ok := any(e.Item).(string)
		if !ok {
			break
		}
		strKeys = true
		keyBytes += uint64(arena.RegionSize(len(ks)))
	}
	if strKeys {
		slots, idxBytes := arena.IndexFootprint(s.Capacity())
		fmt.Fprintf(tw, "est. arena serving footprint\t%d key bytes + %d index bytes (%d slots), %.1f B/key\n",
			keyBytes, idxBytes, slots, float64(keyBytes+idxBytes)/float64(s.Len()))
	}
	tw.Flush()
	fmt.Printf("\n(summary blobs carry no exact norms; run hhstat on the original trace for Zipf-fit sizing)\n")
}

// fatalf prints an error and exits, the tool's one failure path.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hhstat: "+format+"\n", args...)
	os.Exit(1)
}

// walTally accumulates per-kind record counts and per-summary covered
// sequences across a WAL scan.
type walTally struct {
	batches, counted, creates, blobs int
	// items counts key occurrences: one per batch-record key, a
	// counted record's sum of counts.
	items     int
	badBodies int
	// seq points at each summary's covered sequence, so a record of a
	// known summary updates it without copying the name.
	seq map[string]*uint64
	// pairs is the parse scratch every counted record reuses.
	pairs registry.CountedBatch
}

func (w *walTally) add(rec persist.Record) error {
	switch rec.Kind {
	case persist.KindBatch:
		w.batches++
		if n := countBatchKeys(rec.Body); n >= 0 {
			w.items += n
		} else {
			w.badBodies++
		}
	case persist.KindCounted:
		w.counted++
		// The daemon's own parser, without its per-body occurrence
		// bound (a daemon with a larger max_body_bytes may log more).
		if err := w.pairs.Parse(rec.Body, math.MaxInt64); err == nil {
			w.items += int(w.pairs.Items)
		} else {
			w.badBodies++
		}
	case persist.KindCreate:
		w.creates++
	case persist.KindBlob:
		w.blobs++
	}
	if rec.Seq == 0 {
		return nil // a create record: no sequence
	}
	seq := w.seq[string(rec.Name)]
	if seq == nil {
		seq = new(uint64)
		w.seq[string(rec.Name)] = seq
	}
	*seq = max(*seq, rec.Seq)
	return nil
}

// countBatchKeys walks a uvarint batch body without materializing keys;
// -1 flags a malformed body (CRC-valid, so real corruption).
func countBatchKeys(body []byte) int {
	n := 0
	for len(body) > 0 {
		l, used := binary.Uvarint(body)
		if used <= 0 || l > uint64(len(body)-used) {
			return -1
		}
		body = body[used+int(l):]
		n++
	}
	return n
}

func (w *walTally) print(tw *tabwriter.Writer) {
	fmt.Fprintf(tw, "records\t%d batches + %d counted (%d items), %d creates, %d blobs\n",
		w.batches, w.counted, w.items, w.creates, w.blobs)
	if w.badBodies > 0 {
		fmt.Fprintf(tw, "CORRUPT batch or counted bodies\t%d\n", w.badBodies)
	}
	names := make([]string, 0, len(w.seq))
	for name := range w.seq {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(tw, "  %s\tcovered through seq %d\n", name, *w.seq[name])
	}
}

// reportWALSegment scans one segment file the way recovery's final
// segment is scanned: a torn tail is reported, not fatal.
func reportWALSegment(r io.Reader) {
	tally := &walTally{seq: make(map[string]*uint64)}
	rep, err := persist.ScanSegment(r, persist.DefaultMaxRecordBytes, true, tally.add)
	if err != nil {
		fatalf("scanning WAL segment: %v", err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "WAL segment\t%d records\n", rep.Records)
	if rep.Torn {
		fmt.Fprintf(tw, "tail\ttorn at offset %d (replay truncates here)\n", rep.TornOffset)
	} else {
		fmt.Fprintf(tw, "tail\tclean\n")
	}
	tally.print(tw)
	tw.Flush()
}

// reportManifest prints one snapshot manifest document.
func reportManifest(man *persist.Manifest, snapDir string) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "snapshot manifest\t%s\n", man.Format)
	fmt.Fprintf(tw, "written at\t%s\n", man.WrittenAt.UTC().Format(time.RFC3339))
	fmt.Fprintf(tw, "WAL replay resumes at segment\t%d\n", man.WALSegment)
	for _, ms := range man.Summaries {
		line := fmt.Sprintf("seq %d, N %.1f, %d tracked", ms.Seq, ms.N, ms.Len)
		if ms.Algorithm != "" {
			line += ", " + ms.Algorithm
		}
		if g := ms.Guarantee; g != nil {
			line += fmt.Sprintf(", guarantee (%g, %g)", g.A, g.B)
		}
		line += fmt.Sprintf(", %s %d B crc %08x", ms.Blob, ms.Size, ms.CRC32C)
		if snapDir != "" {
			// Against a live directory, re-verify the blob end to end.
			data, err := os.ReadFile(filepath.Join(snapDir, ms.Blob))
			switch {
			case err != nil:
				line += fmt.Sprintf(" [MISSING: %v]", err)
			case int64(len(data)) != ms.Size || persist.Checksum(data) != ms.CRC32C:
				line += " [CORRUPT: size/CRC mismatch]"
			default:
				info, ok := hh.SniffBlob(data)
				if !ok {
					line += " [CORRUPT: unrecognized blob header]"
				} else if ms.Algorithm != "" && info.Algo.String() != ms.Algorithm {
					line += fmt.Sprintf(" [MISMATCH: %v blob]", info.Algo)
				} else {
					line += " [verified]"
				}
			}
		}
		fmt.Fprintf(tw, "  %s\t%s\n", ms.Name, line)
	}
	tw.Flush()
}

// reportDataDir inspects an hhserverd durability data directory:
// committed snapshot (blobs re-verified), then the full WAL. Read-only,
// so it is safe against a live daemon — at worst the report spans an
// in-progress append as a torn tail.
func reportDataDir(dir string) {
	man, snapDir, err := persist.ReadManifest(dir)
	if err != nil {
		fatalf("%v", err)
	}
	walDir := filepath.Join(dir, persist.WALDirName)
	if _, werr := os.Stat(walDir); werr != nil {
		if man == nil {
			fatalf("%s is neither a stream/blob file nor a durability data directory", dir)
		}
		fatalf("data directory has a snapshot but no wal/: %v", werr)
	}
	if man == nil {
		fmt.Printf("no committed snapshot (every boot replays the full WAL)\n")
	} else {
		reportManifest(man, snapDir)
	}
	tally := &walTally{seq: make(map[string]*uint64)}
	rep, err := persist.ScanWAL(walDir, 0, persist.DefaultMaxRecordBytes, tally.add)
	if err != nil {
		fatalf("scanning WAL: %v", err)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "WAL\t%d segments, %d records\n", rep.Segments, rep.Records)
	if rep.Torn {
		fmt.Fprintf(tw, "tail\ttorn in %s at offset %d (replay truncates here)\n", rep.TornSegment, rep.TornOffset)
	} else {
		fmt.Fprintf(tw, "tail\tclean\n")
	}
	tally.print(tw)
	tw.Flush()
}

func main() {
	var (
		k   = flag.Int("k", 10, "residual parameter k")
		eps = flag.Float64("eps", 0.001, "target error rate for the counter-budget suggestion")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hhstat [-k int] [-eps float] stream.bin ('-' reads from stdin; a directory is inspected as an hhserverd data dir)")
		os.Exit(2)
	}
	if path := flag.Arg(0); path != "-" {
		if fi, err := os.Stat(path); err == nil && fi.IsDir() {
			reportDataDir(path)
			return
		}
	}
	// Stream files can be multi-gigabyte traces: file inputs stay on a
	// seekable *os.File and are never buffered whole; only stdin ("-",
	// which cannot seek for the sniff + format retries) is slurped.
	var in io.ReadSeeker
	if path := flag.Arg(0); path == "-" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hhstat: %v\n", err)
			os.Exit(1)
		}
		in = bytes.NewReader(data)
	} else {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hhstat: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	rewind := func() {
		if _, err := in.Seek(0, io.SeekStart); err != nil {
			fmt.Fprintf(os.Stderr, "hhstat: %v\n", err)
			os.Exit(1)
		}
	}

	var header [9]byte
	n, _ := io.ReadFull(in, header[:])
	rewind()
	if n >= 4 && string(header[:4]) == "HHWL" {
		reportWALSegment(in)
		return
	}
	if n >= 1 && header[0] == '{' {
		// Possibly a snapshot manifest: its "format" field is declared
		// first, so the document self-identifies on a plain JSON parse.
		data, err := io.ReadAll(in)
		rewind()
		if err == nil {
			var man persist.Manifest
			if json.Unmarshal(data, &man) == nil && man.Format == persist.ManifestFormat {
				snapDir := "" // piped manifests have no directory to verify against
				if p := flag.Arg(0); p != "-" {
					snapDir = filepath.Dir(p)
				}
				reportManifest(&man, snapDir)
				return
			}
		}
	}
	if n >= 6 {
		switch string(header[:6]) {
		case "HHSUM2", "HHWIN2":
			info, _ := hh.SniffBlob(header[:n])
			if info.StringKeys {
				s, err := hh.Decode[string](in)
				if err != nil {
					fmt.Fprintf(os.Stderr, "hhstat: decoding summary blob: %v\n", err)
					os.Exit(1)
				}
				reportSummary(s, *k)
				return
			}
			s, err := hh.Decode[uint64](in)
			if err != nil {
				fmt.Fprintf(os.Stderr, "hhstat: decoding summary blob: %v\n", err)
				os.Exit(1)
			}
			reportSummary(s, *k)
			return
		}
	}

	truth := exact.New()
	items, err := stream.ReadUnit(in)
	if err != nil {
		// Retry as a weighted stream.
		rewind()
		ups, werr := stream.ReadWeighted(in)
		if werr != nil {
			fmt.Fprintf(os.Stderr, "hhstat: not a stream file: %v / %v\n", err, werr)
			os.Exit(1)
		}
		for _, u := range ups {
			truth.UpdateWeighted(u.Item, u.Weight)
		}
	} else {
		for _, x := range items {
			truth.Update(x)
		}
	}

	sorted := make([]float64, 0, truth.Distinct())
	for _, v := range truth.Sparse() {
		sorted = append(sorted, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))

	alphaHat, r2 := zipfmath.FitAlpha(sorted, 1000)

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "total mass F1\t%.1f\n", truth.F1())
	fmt.Fprintf(tw, "distinct items\t%d\n", truth.Distinct())
	fmt.Fprintf(tw, "F1^res(%d)\t%.1f\n", *k, truth.Res1(*k))
	fmt.Fprintf(tw, "F2^res(%d)\t%.3e\n", *k, truth.ResP(*k, 2))
	if len(sorted) > 0 {
		fmt.Fprintf(tw, "max frequency\t%.1f\n", sorted[0])
	}
	fmt.Fprintf(tw, "fitted Zipf alpha\t%.3f (r2 %.3f)\n", alphaHat, r2)
	suggested := zipfmath.SuggestCounters(alphaHat, *eps, 1, 1)
	fmt.Fprintf(tw, "Theorem 8 budget for eps=%.4g\t%d counters\n", *eps, suggested)
	genericBudget := int(2 / *eps)
	fmt.Fprintf(tw, "generic budget 2/eps\t%d counters\n", genericBudget)
	tw.Flush()

	// A ready-to-paste configuration for the unified API: the Theorem 8
	// budget where the Zipf fit is trustworthy, the generic sizing
	// otherwise.
	m := suggested
	if r2 < 0.9 {
		m = genericBudget
	}
	fmt.Printf("\nsuggested construction:\n  heavyhitters.New[uint64](heavyhitters.WithCapacity(%d))\n", m)
	fmt.Printf("  // or, sized from the accuracy target directly:\n")
	fmt.Printf("  heavyhitters.New[uint64](heavyhitters.WithErrorBudget(%g, 0))\n", *eps)
}
