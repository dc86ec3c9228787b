package main_test

// End-to-end test of the real hhserverd binary: build it, boot it on
// an ephemeral port, and run the full distributed round-trip the CI
// e2e job gates — agents push raw batches and encoded blobs over
// loopback HTTP, queries come back with certain bounds checked against
// an exact oracle, and the served merge is pinned byte-equal to an
// in-process MergeSummaries of the same inputs. Skipped under -short.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	hh "repro"
	"repro/client"
	"repro/internal/stream"
)

// serverd is a booted hhserverd process: its base HTTP URL, the bound
// hhwire addresses (empty when the listeners are disabled), and the
// process handle for tests that kill and restart it.
type serverd struct {
	base     string
	wireAddr string
	udpAddr  string
	cmd      *exec.Cmd

	// mu guards out, which accumulates stdout printed after the startup
	// address lines — recovery reports, drain summaries — for the crash
	// tests' assertions.
	mu  sync.Mutex
	out strings.Builder //hh:guardedby mu
}

// stdoutText returns everything the daemon printed after the startup
// address lines so far.
func (s *serverd) stdoutText() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.out.String()
}

// waitStdout polls until substr appears on the daemon's post-startup
// stdout (the drain goroutine races the caller, so a one-shot check
// would be flaky).
func waitStdout(t *testing.T, s *serverd, substr string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if strings.Contains(s.stdoutText(), substr) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon stdout never contained %q; got:\n%s", substr, s.stdoutText())
}

// startServerd builds and boots hhserverd with the given config JSON,
// returning the base URL. The process is killed at test cleanup.
func startServerd(t *testing.T, configJSON string) string {
	return bootServerd(t, configJSON).base
}

// bootServerd builds and boots hhserverd, passing extraArgs through,
// and parses the startup contract off stdout: the HTTP line first,
// then — when -wire-addr / -udp-addr are given — the wire and udp
// lines, in that order. The process is killed at test cleanup.
func bootServerd(t *testing.T, configJSON string, extraArgs ...string) *serverd {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "hhserverd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/hhserverd")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hhserverd: %v\n%s", err, out)
	}

	args := []string{"-addr", "127.0.0.1:0"}
	if configJSON != "" {
		cfg := filepath.Join(dir, "serverd.json")
		if err := os.WriteFile(cfg, []byte(configJSON), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, "-config", cfg)
	}
	args = append(args, extraArgs...)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting hhserverd: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	// The startup contract: first stdout line names the bound address.
	sc := bufio.NewScanner(stdout)
	readAddr := func(marker string) string {
		if !sc.Scan() {
			t.Fatalf("hhserverd exited before announcing %q: %v", marker, sc.Err())
		}
		line := sc.Text()
		i := strings.Index(line, marker)
		if i < 0 {
			t.Fatalf("unexpected startup line %q (want %q)", line, marker)
		}
		return strings.Fields(line[i+len(marker):])[0]
	}
	s := &serverd{cmd: cmd}
	s.base = "http://" + readAddr("listening on ")
	for _, a := range extraArgs {
		switch a {
		case "-wire-addr":
			s.wireAddr = readAddr("wire listening on ")
		case "-udp-addr":
			s.udpAddr = readAddr("udp listening on ")
		}
	}
	go func() { // drain (and record) so the child never blocks on a full pipe
		for sc.Scan() {
			s.mu.Lock()
			s.out.WriteString(sc.Text())
			s.out.WriteByte('\n')
			s.mu.Unlock()
		}
	}()
	return s
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // cmd/hhserverd -> module root
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	ctx := context.Background()
	c := client.New(base, "")
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if err := c.Health(ctx); err == nil {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("hhserverd never became healthy")
}

func TestE2EServeIngestMergeQueryEncode(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test skipped in -short mode")
	}
	const (
		m        = 200
		universe = 3000
		perAgent = 30_000
		liveN    = 20_000
		phi      = 0.01
	)
	base := startServerd(t, fmt.Sprintf(`{
		"summaries": {
			"agg":  {"capacity": %d},
			"live": {"capacity": 256, "shards": 4}
		}
	}`, m))
	waitHealthy(t, base)
	ctx := context.Background()

	// --- Wire-level merge: two agents summarize locally, encode, push. ---
	truth := make(map[string]float64)
	var blobs [][]byte
	var decoded []hh.Summary[string]
	for seed := uint64(1); seed <= 2; seed++ {
		agent := hh.New[string](hh.WithCapacity(m))
		keys := make([]string, 0, perAgent)
		for _, x := range stream.Zipf(universe, 1.1, perAgent, stream.OrderRandom, seed) {
			k := fmt.Sprintf("item-%d", x)
			keys = append(keys, k)
			truth[k]++
		}
		agent.UpdateBatch(keys)
		var buf bytes.Buffer
		if err := agent.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, buf.Bytes())
		d, err := hh.Decode[string](bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, d)
	}
	agg := client.New(base, "agg")
	for _, b := range blobs {
		if _, err := agg.MergeBlob(ctx, bytes.NewReader(b)); err != nil {
			t.Fatalf("MergeBlob: %v", err)
		}
	}

	// Served N must be the exact union mass of both pushed blobs.
	top, err := agg.Top(ctx, 10)
	if err != nil {
		t.Fatalf("Top: %v", err)
	}
	if want := float64(2 * perAgent); top.N != want {
		t.Errorf("merged N over the wire = %v, want %v", top.N, want)
	}

	// Acceptance pin: /heavyhitters equals an in-process MergeSummaries
	// of the same inputs — item for item, bound for bound.
	ref, err := hh.MergeSummaries(m, decoded...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := agg.HeavyHitters(ctx, phi)
	if err != nil {
		t.Fatalf("HeavyHitters: %v", err)
	}
	want := ref.HeavyHitters(phi)
	if len(got.Results) != len(want) {
		t.Fatalf("server reported %d heavy hitters, in-process merge %d", len(got.Results), len(want))
	}
	guaranteed := 0
	for i, h := range got.Results {
		w := want[i]
		if h.Item != w.Item || h.Count != w.Count || h.Lo != w.Lo || h.Hi != w.Hi || h.Guaranteed != w.Guaranteed {
			t.Errorf("heavyhitters[%d]: server %+v != in-process %+v", i, h, w)
		}
		if h.Guaranteed {
			guaranteed++
			if truth[h.Item] < phi*top.N {
				t.Errorf("guaranteed hitter %q has true count %v below threshold %v",
					h.Item, truth[h.Item], phi*top.N)
			}
		}
		if f := truth[h.Item]; f < h.Lo || f > h.Hi {
			t.Errorf("true count %v of %q escapes served bounds [%v, %v]", f, h.Item, h.Lo, h.Hi)
		}
	}
	if guaranteed == 0 {
		t.Error("no guaranteed heavy hitters on a Zipf union; the bounds are uselessly wide")
	}

	// Guaranteed top-k against the exact oracle: with m counters over
	// this stream, the served top-10's bound intervals must all contain
	// the oracle counts.
	for _, r := range top.Results {
		if f := truth[r.Item]; f < r.Lo || f > r.Hi {
			t.Errorf("top item %q: true %v outside [%v, %v]", r.Item, f, r.Lo, r.Hi)
		}
	}

	// --- Snapshot round-trip: /encode decodes to the same summary. ---
	snap, err := agg.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap.N() != ref.N() {
		t.Errorf("decoded snapshot N = %v, want %v", snap.N(), ref.N())
	}
	for _, e := range ref.Top(20) {
		rlo, rhi := ref.EstimateBounds(e.Item)
		slo, shi := snap.EstimateBounds(e.Item)
		if slo != rlo || shi != rhi {
			t.Errorf("snapshot bounds of %q = [%v, %v], want [%v, %v]", e.Item, slo, shi, rlo, rhi)
		}
	}

	// --- Live batch ingest path (text + binary) with exact oracle. ---
	live := client.New(base, "live")
	liveTruth := make(map[string]float64)
	liveKeys := make([]string, 0, liveN)
	for _, x := range stream.Zipf(1000, 1.1, liveN, stream.OrderRandom, 11) {
		k := fmt.Sprintf("k%d", x)
		liveKeys = append(liveKeys, k)
		liveTruth[k]++
	}
	half := len(liveKeys) / 2
	for lo := 0; lo < half; lo += 4096 {
		if _, err := live.Push(ctx, liveKeys[lo:min(lo+4096, half)]); err != nil {
			t.Fatalf("Push: %v", err)
		}
	}
	for lo := half; lo < len(liveKeys); lo += 4096 {
		if _, err := live.PushBinary(ctx, liveKeys[lo:min(lo+4096, len(liveKeys))]); err != nil {
			t.Fatalf("PushBinary: %v", err)
		}
	}
	ltop, err := live.Top(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ltop.N != float64(liveN) {
		t.Errorf("live N = %v, want %d", ltop.N, liveN)
	}
	for _, r := range ltop.Results {
		if f := liveTruth[r.Item]; f < r.Lo || f > r.Hi {
			t.Errorf("live top %q: true %v outside [%v, %v]", r.Item, f, r.Lo, r.Hi)
		}
	}
	est, err := live.Estimate(ctx, ltop.Results[0].Item)
	if err != nil {
		t.Fatal(err)
	}
	if f := liveTruth[est.Key]; f < est.Lo || f > est.Hi {
		t.Errorf("estimate of %q: true %v outside [%v, %v]", est.Key, f, est.Lo, est.Hi)
	}
}

// TestE2EDynamicCreateAndPipe covers runtime creation plus the
// encode-pipe chain: a summary created over HTTP, filled, snapshotted
// via /encode, and the snapshot piped into hhmerge's stdin ('-') the
// way `curl .../encode | hhmerge -` would.
func TestE2EDynamicCreateAndPipe(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test skipped in -short mode")
	}
	base := startServerd(t, "")
	waitHealthy(t, base)
	ctx := context.Background()

	c := client.New(base, "pipes")
	if err := c.Create(ctx, hh.Spec{Capacity: 128}); err != nil {
		t.Fatalf("Create: %v", err)
	}
	keys := make([]string, 0, 10_000)
	for _, x := range stream.Zipf(400, 1.2, 10_000, stream.OrderRandom, 3) {
		keys = append(keys, fmt.Sprintf("req/%d", x))
	}
	if _, err := c.Push(ctx, keys); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := c.Encode(ctx, &blob); err != nil {
		t.Fatalf("Encode: %v", err)
	}

	dir := t.TempDir()
	hhmerge := filepath.Join(dir, "hhmerge")
	build := exec.Command("go", "build", "-o", hhmerge, "./cmd/hhmerge")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building hhmerge: %v\n%s", err, out)
	}
	merge := exec.Command(hhmerge, "-m", "128", "-k", "5", "-")
	merge.Stdin = bytes.NewReader(blob.Bytes())
	out, err := merge.CombinedOutput()
	if err != nil {
		t.Fatalf("hhmerge -: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "covering mass 10000") {
		t.Errorf("hhmerge on piped server snapshot:\n%s", out)
	}
	if !strings.Contains(string(out), "req/") {
		t.Errorf("hhmerge did not rank the server's string keys:\n%s", out)
	}
}

// TestE2EEarlySIGTERMDrains sends SIGTERM the moment the listening line
// prints — before the daemon has necessarily started serving. The
// signal handler is installed before recovery, so the signal must
// still produce a clean drain and exit status 0, never a kill by the
// signal's default action.
func TestE2EEarlySIGTERMDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test skipped in -short mode")
	}
	s := bootServerd(t, `{"summaries": {"s": {"capacity": 64}}}`, "-data-dir", t.TempDir())
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitStdout(t, s, "draining")
	if err := s.cmd.Wait(); err != nil {
		t.Fatalf("daemon did not exit cleanly after an early SIGTERM: %v\nstdout:\n%s", err, s.stdoutText())
	}
}
