// Command bench is the end-to-end serving benchmark of hhserverd. It
// builds ./cmd/hhserverd from the same source tree, boots the real
// daemon as a child process, and drives it from this one process with
// at most two goroutines and two connections, over four workloads
// (workloads.go says why each exists). Every answer the daemon gives at
// the end of a run is checked against an exact oracle of everything it
// acknowledged; a violated bound or a failed operation makes the run
// incorrect and the exit status 1.
//
// Usage, from the repository root (bench/run.sh builds in .bench_build
// and passes its arguments through):
//
//	bash bench/run.sh -seed 1                       # all four workloads
//	bash bench/run.sh --workload wire-zipf --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh -trace trace.json             # per-layer metrics and spans
//	bash bench/run.sh -workload http-query-mix -repeat 5 -out runs.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics — the end-to-end set untraced, the
// per-layer set traced (see metrics.go and README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// options selects what one invocation runs.
type options struct {
	workloads []*workload
	seed      uint64
	seconds   float64
	traced    bool
	repeat    int
	scale     float64
	root      string // repository root
	buildDir  string // where the daemon is built and runs keep their data
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 20, "length of each run's measured phase")
	trace := fs.String("trace", "0", `0 untraced; 1 traced, spans written to .bench_build/trace.json; any other value is the spans file of a traced run`)
	out := fs.String("out", "", "write the stamp, every run, and each metric's median and quartiles to this JSON file")
	repeat := fs.Int("repeat", 1, "runs of each workload")
	scale := fs.Float64("scale", 1, "multiplier on input sizes and run length (0.01 makes a smoke run)")
	root := fs.String("root", "", "repository root (default: whichever of . and .. holds cmd/hhserverd)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *repeat < 1 || *scale <= 0 || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace != "0", repeat: *repeat, scale: *scale}
	if *name == "all" {
		for i := range workloads {
			o.workloads = append(o.workloads, &workloads[i])
		}
	} else if w, ok := findWorkload(*name); ok {
		o.workloads = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	var err error
	if o.root, err = findRoot(*root); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	o.buildDir = filepath.Join(o.root, ".bench_build")
	tracePath := ""
	switch *trace {
	case "0":
	case "1":
		tracePath = filepath.Join(o.buildDir, "trace.json")
	default:
		tracePath = *trace
	}

	st, results, err := execute(o, func(r *result) { report(stdout, r) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	groups := summarize(results)
	for _, g := range groups {
		if len(g.runs) > 1 {
			reportSpread(stdout, g)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, map[string]any{"stamp": st, "runs": results, "summary": groups}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if tracePath != "" {
		if err := writeTrace(tracePath, st, results); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, ok, err := finalLine(groups)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// execute builds the daemon and runs every selected workload repeat
// times, handing each result to each as it completes.
func execute(o options, each func(*result)) (stamp, []*result, error) {
	if err := os.MkdirAll(o.buildDir, 0o755); err != nil {
		return stamp{}, nil, err
	}
	st := newStamp(o)
	bin, err := buildDaemon(o.root, o.buildDir)
	if err != nil {
		return st, nil, err
	}
	ev := &env{
		buildDir:  o.buildDir,
		daemonBin: bin,
		scale:     o.scale,
		dur:       time.Duration(o.seconds * o.scale * float64(time.Second)),
		traced:    o.traced,
	}
	var results []*result
	for _, w := range o.workloads {
		for range o.repeat {
			r, err := runWorkload(ev, w, o.seed)
			if err != nil {
				return st, results, fmt.Errorf("%s: %w", w.name, err)
			}
			results = append(results, r)
			each(r)
		}
	}
	return st, results, nil
}

func findRoot(flagRoot string) (string, error) {
	candidates := []string{".", ".."}
	if flagRoot != "" {
		candidates = []string{flagRoot}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "cmd", "hhserverd")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", errors.New("no cmd/hhserverd under the repository root; pass -root")
}

// stamp records what a report was measured on, so reports from
// different hosts, toolchains or filesystems are never compared
// silently.
type stamp struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	DataFS     string  `json:"data_fs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
}

func newStamp(o options) stamp {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
		Commit:     gitCommit(o.root),
		DataFS:     fsType(o.buildDir),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Scale:      o.scale,
	}
}

// gitCommit reads HEAD from the repository's .git directory without
// running git; "unknown" outside a git checkout.
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, where the WAL data dirs live.
func fsType(dir string) string {
	var s syscall.Statfs_t
	if err := syscall.Statfs(dir, &s); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x01021997: "9p", 0x6969: "nfs", 0x2FC12FC1: "zfs",
		0x65735546: "fuse", 0x6a656a63: "virtiofs",
	}
	if n, ok := names[int64(s.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", s.Type)
}

// report prints one run's metrics by name with their units.
func report(w io.Writer, r *result) {
	status := "correct"
	if !r.Correct {
		status = "INCORRECT"
	}
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed %d %s: %s, %d operations, %d failed\n", r.Workload, r.Seed, mode, status, r.Attempted, r.Failed)
	names := endToEndNames
	if r.Traced {
		names = perLayerNames
	}
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedKeys(r.Extra) {
		m := r.Extra[name]
		fmt.Fprintf(w, "  (%s %.6g %s)\n", name, m.Value, m.Unit)
	}
	if r.Traced {
		fmt.Fprintf(w, "  where the time goes (daemon CPU %.1f ns/item):\n", r.Extra["server_cpu_ns_per_item"].Value)
		for _, s := range r.Breakdown {
			fmt.Fprintf(w, "    %-34s %9.2f ns/item %6.1f%%\n", s.Layer, s.NsPerItem, 100*s.OfCPU)
		}
		if res := r.Metrics["reconcile.residual_frac"].Value; math.Abs(res) > 0.15 {
			fmt.Fprintf(w, "  RECONCILE: %s leaves %.0f%% of the daemon's CPU outside the traced layers (tolerance 15%%)\n",
				r.Workload, 100*res)
		}
		fmt.Fprintf(w, "  replayed layers (self time):\n")
		for _, name := range sortedKeys(r.Layers) {
			l := r.Layers[name]
			fmt.Fprintf(w, "    %-26s %7d calls %10.2f ns/item  p50 %10.1f us  p99 %10.1f us\n",
				name, l.Calls, l.SelfNsPerItem, l.P50Us, l.P99Us)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// group is every run of one workload, with each metric's spread.
type group struct {
	Workload string                `json:"workload"`
	Metrics  map[string]spreadStat `json:"metrics"`
	runs     []*result
}

// spreadStat is one metric over repeated runs; Spread is the distance
// between the quartiles as a share of the median.
type spreadStat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

func summarize(results []*result) []*group {
	var groups []*group
	byName := map[string]*group{}
	for _, r := range results {
		g := byName[r.Workload]
		if g == nil {
			g = &group{Workload: r.Workload, Metrics: map[string]spreadStat{}}
			byName[r.Workload] = g
			groups = append(groups, g)
		}
		g.runs = append(g.runs, r)
		for name, m := range r.Metrics {
			s := g.Metrics[name]
			s.Unit, s.Values = m.Unit, append(s.Values, m.Value)
			g.Metrics[name] = s
		}
	}
	for _, g := range groups {
		for name, s := range g.Metrics {
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			if s.Median != 0 {
				s.Spread = (s.Q3 - s.Q1) / math.Abs(s.Median)
			}
			g.Metrics[name] = s
		}
	}
	return groups
}

func reportSpread(w io.Writer, g *group) {
	fmt.Fprintf(w, "%s over %d runs: median [q1, q3] spread\n", g.Workload, len(g.runs))
	for _, n := range sortedKeys(g.Metrics) {
		s := g.Metrics[n]
		fmt.Fprintf(w, "  %-36s %12.6g [%.6g, %.6g] %.3f\n", n, s.Median, s.Q1, s.Q3, s.Spread)
	}
}

// finalLine renders the closing JSON object and reports whether every
// run was correct. A single workload reports its metrics by name
// (medians over repeats); several prefix each name with the workload.
func finalLine(groups []*group) (string, bool, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, g := range groups {
		for _, r := range g.runs {
			out.Correct = out.Correct && r.Correct
			out.Attempted += r.Attempted
			out.Failed += r.Failed
		}
		for name, s := range g.Metrics {
			key := name
			if len(groups) > 1 {
				key = g.Workload + "." + name
			}
			out.Metrics[key] = metric{s.Median, s.Unit}
		}
	}
	b, err := json.Marshal(out)
	return string(b), out.Correct, err
}

// writeTrace writes every traced run's spans and layer table.
func writeTrace(path string, st stamp, results []*result) error {
	type traced struct {
		Workload string              `json:"workload"`
		Seed     uint64              `json:"seed"`
		Layers   map[string]layerRow `json:"layers"`
		Spans    [][]span            `json:"spans"`
	}
	var runs []traced
	for _, r := range results {
		if r.Traced {
			runs = append(runs, traced{r.Workload, r.Seed, r.Layers, r.spans})
		}
	}
	return writeJSON(path, map[string]any{"stamp": st, "runs": runs})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
