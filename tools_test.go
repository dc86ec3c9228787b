package heavyhitters_test

// Integration tests for the command-line tools: build each binary and run
// the full distributed pipeline (generate → summarize → ship → merge →
// size) against real files, asserting on output. Skipped under -short.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	hh "repro"
	"repro/internal/persist"
	"repro/internal/registry"
)

// buildTool compiles ./cmd/<name> into dir and returns the binary path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = moduleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

// run executes a built binary and returns its stdout, failing the test on
// a non-zero exit.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestToolsPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("tool integration tests skipped in -short mode")
	}
	dir := t.TempDir()
	hhgen := buildTool(t, dir, "hhgen")
	hhcli := buildTool(t, dir, "hhcli")
	hhmerge := buildTool(t, dir, "hhmerge")
	hhstat := buildTool(t, dir, "hhstat")

	shard1 := filepath.Join(dir, "s1.bin")
	shard2 := filepath.Join(dir, "s2.bin")
	run(t, hhgen, "-kind", "zipf", "-n", "40000", "-universe", "4000", "-seed", "1", "-o", shard1)
	run(t, hhgen, "-kind", "zipf", "-n", "40000", "-universe", "4000", "-seed", "2", "-o", shard2)

	sum1 := filepath.Join(dir, "s1.sum")
	sum2 := filepath.Join(dir, "s2.sum")
	out := run(t, hhcli, "-alg", "spacesaving", "-m", "200", "-k", "3", "-dump", sum1, shard1)
	if !strings.Contains(out, "processed mass 40000") {
		t.Errorf("hhcli output unexpected:\n%s", out)
	}
	// The Zipf stream's heaviest item is id 0; it must lead the ranking.
	if !strings.Contains(out, "1     0") {
		t.Errorf("hhcli did not rank item 0 first:\n%s", out)
	}
	run(t, hhcli, "-alg", "frequent", "-m", "200", "-k", "3", shard1)
	run(t, hhcli, "-alg", "countmin", "-m", "256", "-k", "3", shard1)
	run(t, hhcli, "-alg", "spacesaving", "-shards", "4", "-eps", "0.005", "-k", "3", shard1)
	run(t, hhcli, "-alg", "spacesaving", "-m", "200", "-k", "3", "-dump", sum2, shard2)

	mergedOut := run(t, hhmerge, "-m", "200", "-k", "3", sum1, sum2)
	if !strings.Contains(mergedOut, "merged 2 summaries covering mass 80000") {
		t.Errorf("hhmerge output unexpected:\n%s", mergedOut)
	}
	if !strings.Contains(mergedOut, "Theorem 11") {
		t.Errorf("hhmerge did not report the merged bound:\n%s", mergedOut)
	}

	statOut := run(t, hhstat, "-k", "5", "-eps", "0.01", shard1)
	for _, want := range []string{"total mass F1", "40000", "fitted Zipf alpha", "Theorem 8 budget"} {
		if !strings.Contains(statOut, want) {
			t.Errorf("hhstat output missing %q:\n%s", want, statOut)
		}
	}
}

// TestToolsWindowedPipeline covers the windowed tool path end to end:
// a seeded drift trace through a windowed hhcli (rotation state and
// window-aware ranking printed), the decayed variant, and the windowed
// dump → decode chain via hhmerge.
func TestToolsWindowedPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("tool integration tests skipped in -short mode")
	}
	dir := t.TempDir()
	hhgen := buildTool(t, dir, "hhgen")
	hhcli := buildTool(t, dir, "hhcli")
	hhmerge := buildTool(t, dir, "hhmerge")
	hhstat := buildTool(t, dir, "hhstat")

	drift := filepath.Join(dir, "drift.bin")
	run(t, hhgen, "-kind", "drift", "-n", "60000", "-universe", "2000",
		"-period", "20000", "-seed", "5", "-o", drift)
	// Identical flags must reproduce byte-identical traces (the -seed
	// contract).
	drift2 := filepath.Join(dir, "drift2.bin")
	run(t, hhgen, "-kind", "drift", "-n", "60000", "-universe", "2000",
		"-period", "20000", "-seed", "5", "-o", drift2)
	b1, err := os.ReadFile(drift)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(drift2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b1), string(b2)) || len(b1) != len(b2) {
		t.Error("hhgen -seed did not reproduce a byte-identical trace")
	}

	sum := filepath.Join(dir, "win.sum")
	out := run(t, hhcli, "-m", "128", "-window", "8000", "-epochs", "4",
		"-k", "5", "-dump", sum, drift)
	if !strings.Contains(out, "window: 4/4 epochs live, 2000 items each") {
		t.Errorf("hhcli did not report the ring state:\n%s", out)
	}
	if !strings.Contains(out, "covering the last 8000 items") {
		t.Errorf("hhcli did not report the covered suffix:\n%s", out)
	}
	// The windowed dump decodes and merges downstream, and hhmerge
	// announces that each HHWIN2 input flattens to its covered suffix.
	mergedOut := run(t, hhmerge, "-m", "128", "-k", "3", sum, sum)
	if !strings.Contains(mergedOut, "merged 2 summaries covering mass 16000") {
		t.Errorf("hhmerge on windowed dumps unexpected:\n%s", mergedOut)
	}
	if !strings.Contains(mergedOut, "windowed summary (4/4 epochs live), flattening the covered suffix of mass 8000") {
		t.Errorf("hhmerge did not report the windowed inputs:\n%s", mergedOut)
	}

	// hhstat detects the HHWIN2 frame and reports summary-derived stats
	// instead of failing to parse it as a stream.
	statOut := run(t, hhstat, "-k", "5", sum)
	for _, want := range []string{"summary blob", "4/4 epochs live", "covered mass", "8000.0", "tracked items"} {
		if !strings.Contains(statOut, want) {
			t.Errorf("hhstat on windowed blob missing %q:\n%s", want, statOut)
		}
	}
	// Same for a flat HHSUM2 blob.
	flatSum := filepath.Join(dir, "flat.sum")
	run(t, hhcli, "-m", "128", "-k", "3", "-dump", flatSum, drift)
	flatStat := run(t, hhstat, flatSum)
	for _, want := range []string{"summary blob", "processed mass N", "60000.0"} {
		if !strings.Contains(flatStat, want) {
			t.Errorf("hhstat on flat blob missing %q:\n%s", want, flatStat)
		}
	}

	decayOut := run(t, hhcli, "-m", "128", "-decay", "0.001", "-k", "5", drift)
	if !strings.Contains(decayOut, "decay: rate 0.001") {
		t.Errorf("hhcli did not report the decay mode:\n%s", decayOut)
	}

	// The concurrency tier composes with the windowed tool path and
	// produces the same report shape.
	concOut := run(t, hhcli, "-m", "128", "-window", "8000", "-epochs", "4",
		"-shards", "2", "-concurrent", "-k", "5", drift)
	if !strings.Contains(concOut, "epochs live") {
		t.Errorf("hhcli -concurrent windowed output unexpected:\n%s", concOut)
	}
}

// TestToolsStdinPipeline covers the '-' stdin path of hhmerge and
// hhstat: a dumped blob pipes into both tools exactly the way
// `curl .../encode | hhmerge -` does, mixing stdin with file args.
func TestToolsStdinPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("tool integration tests skipped in -short mode")
	}
	dir := t.TempDir()
	hhgen := buildTool(t, dir, "hhgen")
	hhcli := buildTool(t, dir, "hhcli")
	hhmerge := buildTool(t, dir, "hhmerge")
	hhstat := buildTool(t, dir, "hhstat")

	shard := filepath.Join(dir, "s.bin")
	run(t, hhgen, "-kind", "zipf", "-n", "40000", "-universe", "4000", "-seed", "1", "-o", shard)
	sum1 := filepath.Join(dir, "s1.sum")
	sum2 := filepath.Join(dir, "s2.sum")
	run(t, hhcli, "-alg", "spacesaving", "-m", "200", "-k", "3", "-dump", sum1, shard)
	run(t, hhcli, "-alg", "spacesaving", "-m", "200", "-k", "3", "-dump", sum2, shard)
	blob, err := os.ReadFile(sum1)
	if err != nil {
		t.Fatal(err)
	}

	// hhmerge '-' mixed with a file argument.
	merge := exec.Command(hhmerge, "-m", "200", "-k", "3", "-", sum2)
	merge.Stdin = bytes.NewReader(blob)
	out, err := merge.CombinedOutput()
	if err != nil {
		t.Fatalf("hhmerge -: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "merged 2 summaries covering mass 80000") {
		t.Errorf("hhmerge via stdin unexpected:\n%s", out)
	}

	// hhstat '-' on a piped blob.
	stat := exec.Command(hhstat, "-k", "5", "-")
	stat.Stdin = bytes.NewReader(blob)
	out, err = stat.CombinedOutput()
	if err != nil {
		t.Fatalf("hhstat -: %v\n%s", err, out)
	}
	for _, want := range []string{"summary blob", "processed mass N", "40000.0"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("hhstat via stdin missing %q:\n%s", want, out)
		}
	}

	// hhstat '-' on a piped raw stream file (not a blob).
	raw, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	stat = exec.Command(hhstat, "-")
	stat.Stdin = bytes.NewReader(raw)
	out, err = stat.CombinedOutput()
	if err != nil {
		t.Fatalf("hhstat - (raw stream): %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "total mass F1") {
		t.Errorf("hhstat via stdin on a raw stream unexpected:\n%s", out)
	}

	// stdin may only be consumed once per invocation.
	dup := exec.Command(hhmerge, "-", "-")
	dup.Stdin = bytes.NewReader(blob)
	if err := dup.Run(); err == nil {
		t.Error("hhmerge accepted '-' twice")
	}
}

func TestToolsWeightedPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("tool integration tests skipped in -short mode")
	}
	dir := t.TempDir()
	hhgen := buildTool(t, dir, "hhgen")
	hhcli := buildTool(t, dir, "hhcli")

	flows := filepath.Join(dir, "flows.bin")
	run(t, hhgen, "-kind", "weighted-zipf", "-n", "100000", "-universe", "500", "-o", flows)
	out := run(t, hhcli, "-alg", "spacesaving", "-weighted", "-m", "64", "-k", "5", flows)
	if !strings.Contains(out, "processed mass") {
		t.Errorf("weighted hhcli output unexpected:\n%s", out)
	}
}

func TestToolsHHBenchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("tool integration tests skipped in -short mode")
	}
	dir := t.TempDir()
	hhbench := buildTool(t, dir, "hhbench")
	out := run(t, hhbench, "-small", "-experiment", "E4")
	if !strings.Contains(out, "Theorem 6") || !strings.Contains(out, "yes") {
		t.Errorf("hhbench E4 output unexpected:\n%s", out)
	}
	csvOut := run(t, hhbench, "-small", "-experiment", "E4", "-format", "csv")
	if !strings.HasPrefix(csvOut, "eps,m,") {
		t.Errorf("hhbench CSV output unexpected:\n%s", csvOut)
	}
}

func TestToolsErrorPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("tool integration tests skipped in -short mode")
	}
	dir := t.TempDir()
	hhcli := buildTool(t, dir, "hhcli")
	hhbench := buildTool(t, dir, "hhbench")

	// Unknown algorithm must exit non-zero.
	bad := filepath.Join(dir, "missing.bin")
	if err := exec.Command(hhcli, "-alg", "nope", bad).Run(); err == nil {
		t.Error("hhcli accepted an unknown algorithm")
	}
	// Missing file must exit non-zero.
	if err := exec.Command(hhcli, bad).Run(); err == nil {
		t.Error("hhcli accepted a missing file")
	}
	// Unknown experiment must exit non-zero.
	if err := exec.Command(hhbench, "-experiment", "E99").Run(); err == nil {
		t.Error("hhbench accepted an unknown experiment")
	}
}

// TestToolsDurabilityInspect drives hhstat over the three hhserverd
// durability artifacts (docs/DURABILITY.md): the data directory, a
// single WAL segment file, and a snapshot manifest — built by a real
// registry lifecycle (ingest → snapshot → tail ingest → halt).
func TestToolsDurabilityInspect(t *testing.T) {
	if testing.Short() {
		t.Skip("tool integration tests skipped in -short mode")
	}
	dir := t.TempDir()
	hhstat := buildTool(t, dir, "hhstat")

	dataDir := filepath.Join(dir, "data")
	reg, err := registry.New(registry.Config{
		Durability: &hh.DurabilitySpec{Dir: dataDir, SnapshotInterval: "1h", Fsync: hh.FsyncAlways},
		Summaries:  map[string]hh.Spec{"queries": {Capacity: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := reg.Get("queries")
	if err := e.IngestBatch([]string{"a", "b", "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestBatch([]string{"c"}); err != nil {
		t.Fatal(err)
	}
	// A counted record (the hhwire counted frame's body, logged
	// verbatim): 5 occurrences in two pairs.
	var cb registry.CountedBatch
	if err := cb.Parse(registry.AppendCountedRecord(registry.AppendCountedRecord(nil, "a", 4), "d", 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.IngestCounted(&cb); err != nil {
		t.Fatal(err)
	}
	if err := reg.Halt(); err != nil { // flush, no final snapshot: a live WAL tail remains
		t.Fatal(err)
	}

	// Data-directory report: manifest summary re-verified, WAL tallied —
	// the tail's batch record and counted record, 1 + 5 items.
	out := run(t, hhstat, dataDir)
	for _, want := range []string{"snapshot manifest", "queries", "[verified]", "covered through seq 3", "clean",
		"1 batches + 1 counted (6 items)"} {
		if !strings.Contains(out, want) {
			t.Errorf("hhstat on data dir missing %q:\n%s", want, out)
		}
	}

	// Single-segment report via the HHWL magic sniff.
	segs, err := filepath.Glob(filepath.Join(dataDir, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments found: %v", err)
	}
	out = run(t, hhstat, segs[0])
	for _, want := range []string{"WAL segment", "covered through seq 3"} {
		if !strings.Contains(out, want) {
			t.Errorf("hhstat on WAL segment missing %q:\n%s", want, out)
		}
	}

	// A CRC-valid counted record whose body is malformed (count 0) is
	// flagged as a corrupt body, not counted.
	bad := filepath.Join(dir, "bad.log")
	seg := append([]byte("HHWL\x01\x00\x00\x00"), persist.EncodeRecord(nil, persist.KindCounted, 1, "queries", []byte{1, 'a', 0})...)
	if err := os.WriteFile(bad, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, hhstat, bad)
	for _, want := range []string{"0 batches + 1 counted (0 items)", "CORRUPT batch or counted bodies"} {
		if !strings.Contains(out, want) {
			t.Errorf("hhstat on a malformed counted record missing %q:\n%s", want, out)
		}
	}

	// Manifest report via the hhsnap/v1 format sniff, blob verified from
	// the sibling files.
	manifests, err := filepath.Glob(filepath.Join(dataDir, "snap-*", "MANIFEST.json"))
	if err != nil || len(manifests) == 0 {
		t.Fatalf("no snapshot manifest found: %v", err)
	}
	out = run(t, hhstat, manifests[0])
	for _, want := range []string{"snapshot manifest", "hhsnap/v1", "queries", "[verified]"} {
		if !strings.Contains(out, want) {
			t.Errorf("hhstat on manifest missing %q:\n%s", want, out)
		}
	}
}
