// Package render produces the operator-facing output of the diagnosis
// tools: the full diagnose report (tables, breakdowns, lead-time and
// recommendation summaries) in text and JSON form, plus the ingest
// warning and partial-ledger messages every front end prints the same
// way. cmd/diagnose, cmd/watch and the HTTP server all render through
// this package, which is what makes `GET /v1/diagnose` byte-identical
// to the CLI over the same corpus.
package render

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"hpcfail/internal/core"
	"hpcfail/internal/logstore"
	"hpcfail/internal/miner"
	"hpcfail/internal/report"
)

// Warnings prints ingest warnings one per line. max > 0 caps the list,
// summarising the overflow ("... and N more ingest warnings"); max <= 0
// prints everything.
func Warnings(w io.Writer, warnings []string, max int) {
	for i, s := range warnings {
		if max > 0 && i >= max {
			fmt.Fprintf(w, "... and %d more ingest warnings\n", len(warnings)-max)
			return
		}
		fmt.Fprintln(w, "warning:", s)
	}
}

// Diagnose writes the full text diagnosis report for one corpus — the
// exact stdout of `cmd/diagnose` (everything after the stderr
// warnings): the load header, ingest summary, degraded banner, the
// failure table, optional per-failure evidence, cause/layer breakdowns,
// lead-time, MTBF and downtime summaries and the Table VI
// recommendations. logsDir only labels the empty-corpus error.
func Diagnose(w io.Writer, logsDir string, store *logstore.Store, rep *logstore.IngestReport, res *core.Result, full bool) error {
	first, last, ok := store.Span()
	if !ok {
		return fmt.Errorf("no records found under %s", logsDir)
	}
	fmt.Fprintf(w, "loaded %d records spanning %s .. %s\n", store.Len(), first.Format(time.RFC3339), last.Format(time.RFC3339))
	fmt.Fprintln(w, rep.String())

	if res.Degradation.Degraded() {
		fmt.Fprintf(w, "DEGRADED: %s (confidence scaled by %.2f)\n", res.Degradation.Note(), res.Degradation.Factor())
	}
	fmt.Fprintln(w)

	tbl := report.NewTable("Detected node failures",
		"time", "node", "terminal", "cause", "class", "app-triggered", "job", "int lead", "ext lead")
	for _, d := range res.Diagnoses {
		lt := core.ComputeLeadTime(d)
		job := "-"
		if d.JobID != 0 {
			job = fmt.Sprintf("%d", d.JobID)
		}
		ext := "-"
		if lt.External > 0 {
			ext = lt.External.Round(time.Second).String()
		}
		intl := "-"
		if lt.Internal > 0 {
			intl = lt.Internal.Round(time.Second).String()
		}
		tbl.AddRow(d.Detection.Time.Format("01-02 15:04:05"), d.Detection.Node.String(),
			d.Detection.Terminal, d.Cause.String(), d.Class.String(), d.AppTriggered, job, intl, ext)
	}
	fmt.Fprint(w, tbl.String())

	if full {
		for _, d := range res.Diagnoses {
			fmt.Fprintf(w, "\n%s %s — %s (confidence %.2f, key symbol %q)\n",
				d.Detection.Time.Format(time.RFC3339), d.Detection.Node, d.Cause, d.Confidence, d.KeySymbol)
			for _, ev := range d.InternalEvidence {
				fmt.Fprintf(w, "  internal: %s\n", ev.String())
			}
			for _, ev := range d.ExternalIndicators {
				fmt.Fprintf(w, "  external: %s\n", ev.String())
			}
		}
	}

	// Summaries.
	causes := map[string]float64{}
	for c, n := range res.CauseBreakdown() {
		causes[c.String()] = float64(n)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, report.Bars("Root-cause breakdown", causes, "failures").String())

	classes := map[string]float64{}
	for c, n := range res.ClassBreakdown() {
		classes[c.String()] = float64(n)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, report.Bars("Layer breakdown", classes, "failures").String())

	sum := core.SummarizeLeadTimes(res.Diagnoses)
	fmt.Fprintf(w, "\nlead times: %d/%d failures enhanceable (%s), mean factor %.1fx\n",
		sum.Enhanceable, sum.Total, report.Pct(sum.EnhanceableFraction()), sum.MeanFactor)

	mtbf := res.MTBF()
	if mtbf.N > 0 {
		fmt.Fprintf(w, "MTBF: %.1f ± %.1f minutes over %d gaps\n", mtbf.Mean, mtbf.Stddev, mtbf.N)
	}
	if dt := res.DowntimeSummary(); dt.N > 0 {
		fmt.Fprintf(w, "downtime: %.0f ± %.0f minutes per failure (%d rebooted in window; %.0f node-minutes lost)\n",
			dt.Mean, dt.Stddev, dt.N, dt.Mean*float64(dt.N))
	}

	// Table VI: findings -> recommendations, derived from the measured
	// behaviour of this log corpus.
	if recs := core.Recommend(res); len(recs) > 0 {
		fmt.Fprintln(w, "\nRecommendations (Table VI):")
		for _, r := range recs {
			fmt.Fprintf(w, "  [%d] %s\n      -> %s\n", r.Severity, r.Finding, r.Action)
		}
	}
	return nil
}

// diagnosisJSON is the machine-readable per-diagnosis shape DiagnoseJSON
// emits, one object per line.
type diagnosisJSON struct {
	Time         time.Time `json:"time"`
	Node         string    `json:"node"`
	Terminal     string    `json:"terminal"`
	Cause        string    `json:"cause"`
	Class        string    `json:"class"`
	AppTriggered bool      `json:"app_triggered"`
	JobID        int64     `json:"job_id,omitempty"`
	KeySymbol    string    `json:"key_symbol,omitempty"`
	Confidence   float64   `json:"confidence"`
	Degraded     bool      `json:"degraded,omitempty"`
	Note         string    `json:"note,omitempty"`
	InternalLead float64   `json:"internal_lead_sec,omitempty"`
	ExternalLead float64   `json:"external_lead_sec,omitempty"`
}

// DiagnoseJSON writes one JSON object per diagnosis — the exact stdout
// of `cmd/diagnose -json`.
func DiagnoseJSON(w io.Writer, res *core.Result) error {
	enc := json.NewEncoder(w)
	for _, d := range res.Diagnoses {
		lt := core.ComputeLeadTime(d)
		out := diagnosisJSON{
			Time: d.Detection.Time, Node: d.Detection.Node.String(),
			Terminal: d.Detection.Terminal, Cause: d.Cause.String(),
			Class: d.Class.String(), AppTriggered: d.AppTriggered,
			JobID: d.JobID, KeySymbol: d.KeySymbol, Confidence: d.Confidence,
			Degraded: d.Degraded, Note: d.Note,
			InternalLead: lt.Internal.Seconds(), ExternalLead: lt.External.Seconds(),
		}
		if err := enc.Encode(out); err != nil {
			return err
		}
	}
	return nil
}

// MinedTemplates writes the template-miner report section that
// cmd/diagnose and cmd/watch append under -mine: one row per live
// template, hottest first, with promoted candidate signatures starred.
// It is strictly appended output — everything before it stays
// byte-identical to a run without mining.
func MinedTemplates(w io.Writer, st miner.Stats, views []miner.TemplateView) {
	fmt.Fprintf(w, "\nMined log templates: %d live (%d lines mined, %d promoted, %d evicted)\n",
		st.TemplatesLive, st.LinesMined, st.Promoted, st.Evicted)
	if len(views) == 0 {
		fmt.Fprintln(w, "  nothing quarantined or unclassified — the static profiles covered every line")
		return
	}
	sorted := make([]miner.TemplateView, len(views))
	copy(sorted, views)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Count != sorted[j].Count {
			return sorted[i].Count > sorted[j].Count
		}
		return sorted[i].Template < sorted[j].Template
	})
	for _, v := range sorted {
		mark := " "
		if v.Promoted {
			mark = "*"
		}
		fmt.Fprintf(w, " %s %6d  %-32s %s\n", mark, v.Count, v.Category, v.Template)
	}
	fmt.Fprintln(w, "  (* = promoted candidate signature)")
}
