package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and the share by which it may worsen.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []gatedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

type gatedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload × end-to-end metric, the value in
// each result file, the relative difference and the bound, then the
// workload's detail metrics without a verdict. It reports false when b
// is worse than a by more than a bound, or fails a larger share of its
// operations.
func compareFiles(w io.Writer, benchmarkJSON, pathA, pathB string) (bool, error) {
	var spec benchmarkSpec
	var a, b fileReport
	for path, v := range map[string]any{benchmarkJSON: &spec, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	ok := true
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			fmt.Fprintf(w, "%s: missing from %s\n", ra.Workload, pathB)
			ok = false
			continue
		}
		fmt.Fprintf(w, "%s\n", ra.Workload)
		for _, g := range spec.EndToEnd {
			va, vb := ra.EndToEnd[g.Name].Value, rb.EndToEnd[g.Name].Value
			if va == 0 {
				continue // a traced file carries no end-to-end values but setup_s
			}
			diff := (vb - va) / va
			worse := diff
			if g.Better == "higher" {
				worse = -diff
			}
			verdict := "ok"
			if worse > g.Bound {
				verdict = "WORSE"
				ok = false
			}
			fmt.Fprintf(w, "  %-36s %14.4f %14.4f %-8s %+7.1f%%  bound %4.0f%%  %s\n", g.Name, va, vb, g.Unit, diff*100, g.Bound*100, verdict)
		}
		if fa, fb := ratio(ra.Failed, ra.Attempted), ratio(rb.Failed, rb.Attempted); fb > fa {
			fmt.Fprintf(w, "  ops_failed/ops_attempted rose: %d/%d → %d/%d  WORSE\n", ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			ok = false
		}
		for _, group := range []struct{ a, b map[string]metric }{{ra.Detail, rb.Detail}, {ra.Layers, rb.Layers}} {
			names := make([]string, 0, len(group.a))
			for k := range group.a {
				names = append(names, k)
			}
			sort.Strings(names)
			for _, k := range names {
				ma, mb := group.a[k], group.b[k]
				diff := 0.0
				if ma.Value != 0 {
					diff = (mb.Value - ma.Value) / ma.Value
				}
				fmt.Fprintf(w, "  %-36s %14.4f %14.4f %-8s %+7.1f%%\n", k, ma.Value, mb.Value, ma.Unit, diff*100)
			}
		}
	}
	return ok, nil
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
