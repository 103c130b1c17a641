package main

import (
	"regexp"
	"slices"
	"sort"
	"testing"
)

// TestQuickRunMatchesBenchmarkJSON runs every workload against the real
// binaries on the 3-day corpus, and one traced run, and holds the names
// they print against BENCHMARK.json: a metric renamed in one place and
// not the other would otherwise go unnoticed until the driver refuses
// the file.
func TestQuickRunMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	var spec benchmarkSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	var wantWorkloads, wantE2E, wantLayers []string
	for _, w := range spec.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
	}
	for _, m := range spec.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
	}
	for _, m := range spec.PerLayer {
		wantLayers = append(wantLayers, m.Name)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for _, n := range append(append(append([]string{}, wantWorkloads...), wantE2E...), wantLayers...) {
		if !name.MatchString(n) {
			t.Errorf("name %q in BENCHMARK.json does not match %s", n, name)
		}
	}
	sameNames(t, "workloads", workloadNames(), wantWorkloads)

	bins, err := buildBinaries(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultConfig(7, 0.5, false).quick()
	cfg.workRoot, cfg.prebuilt = t.TempDir(), bins
	for _, w := range workloads {
		res, err := runWorkload(cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		sameNames(t, w.name+" end-to-end metrics", keys(res.EndToEnd), wantE2E)
		for k, m := range res.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive measurement", w.name, k, m.Value)
			}
		}
	}

	trace = newTracer()
	defer func() { trace = nil }()
	cfg.traced = true
	res, err := runWorkload(cfg, workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "per-layer metrics", keys(res.Layers), wantLayers)
	if c := res.Layers["batch.trace_coverage"].Value; c < 0.90 || c > 1.10 {
		t.Errorf("batch.trace_coverage = %.3f, want 0.90–1.10", c)
	}
}

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	g, w := append([]string{}, got...), append([]string{}, want...)
	sort.Strings(g)
	sort.Strings(w)
	if !slices.Equal(g, w) {
		t.Errorf("%s:\n got  %v\n want %v", what, g, w)
	}
}
