package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at 1% of its size, untraced and traced,
// against a freshly built daemon, and checks the runs against
// BENCHMARK.json: every listed metric is emitted with its unit, names
// are well formed, the metric counts fit the format, and no answer
// violates a bound and no operation fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the daemon; skipped in -short mode")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	var all []*workload
	for i := range workloads {
		all = append(all, &workloads[i])
		w := &workloads[i]
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %s: BENCHMARK.json lists %v with a different name or why", w.name, listed)
		}
	}
	root, err := findRoot("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		want, names := spec.EndToEnd, endToEndNames
		if traced {
			want, names = spec.PerLayer, perLayerNames
		}
		var wantNames []string
		for _, m := range want {
			wantNames = append(wantNames, m.Name)
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, nameRE)
			}
		}
		if !slices.Equal(wantNames, names) {
			t.Errorf("traced=%v: BENCHMARK.json lists %v, the benchmark reports %v", traced, wantNames, names)
		}
		o := options{workloads: all, seed: 1, seconds: 20, traced: traced, repeat: 1, scale: 0.01, root: root, buildDir: t.TempDir()}
		_, results, err := execute(o, func(*result) {})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", r.Workload, traced, m.Name, got, m.Unit)
				}
			}
			if v := r.Extra["bound_violations"].Value; v != 0 {
				t.Errorf("%s: %v bound violations: %v", r.Workload, v, r.Notes)
			}
			if v := r.Extra["failed_frac"].Value; v != 0 || !r.Correct {
				t.Errorf("%s: failed_frac %v, correct %v: %v", r.Workload, v, r.Correct, r.Notes)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), the spread the driver computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, m, q3 := quartiles(tc.in)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
