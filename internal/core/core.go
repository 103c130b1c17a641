// Package core implements the paper's primary contribution: the holistic
// node-failure diagnosis pipeline. From raw parsed logs alone — no
// simulator ground truth — it:
//
//  1. detects confirmed node failures in the internal log family
//     (Detector, step 1 of the paper's Fig 2 methodology),
//  2. correlates each failure with external blade/cabinet/ERD evidence
//     over containment-keyed time windows (Correlator, step 2),
//  3. attributes failures to jobs from the scheduler log (JobAnalyzer,
//     step 3),
//  4. infers the root cause by combining stack-trace module analysis
//     (Table IV), internal event signatures and job attribution
//     (RootCauser),
//  5. quantifies lead times with and without external indicators
//     (LeadTime, Fig 13), and
//  6. measures the false-positive effect of external correlation
//     (FalsePositives, Fig 14).
package core

import (
	"time"

	"hpcfail/internal/cname"
	"hpcfail/internal/events"
	"hpcfail/internal/faults"
)

// Config holds the pipeline's correlation windows.
type Config struct {
	// InternalWindow is how far back from a failure the internal
	// precursor search reaches.
	InternalWindow time.Duration
	// ExternalWindow is how far back the external early-indicator
	// search reaches (fail-slow indicators precede failures by roughly
	// 5× the internal lead).
	ExternalWindow time.Duration
	// ConfirmWindow is the look-ahead used when deciding whether an
	// external fault (NHF, NVF) "corresponds to" a failure.
	ConfirmWindow time.Duration
	// RefractoryGap merges terminal events on one node closer than this
	// into a single failure.
	RefractoryGap time.Duration
	// BladeFaultWindow bounds the blade/cabinet health-fault
	// correlation around a failure (Fig 7).
	BladeFaultWindow time.Duration
}

// DefaultConfig returns the windows used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		InternalWindow:   30 * time.Minute,
		ExternalWindow:   4 * time.Hour,
		ConfirmWindow:    15 * time.Minute,
		RefractoryGap:    10 * time.Minute,
		BladeFaultWindow: 15 * time.Minute,
	}
}

// Detection is one confirmed node failure found in the internal logs.
type Detection struct {
	// Node is the failed node.
	Node cname.Name
	// Time is the terminal event's timestamp.
	Time time.Time
	// Terminal is the terminal event category ("node_shutdown",
	// "silent_shutdown" or "nhc_admindown").
	Terminal string
	// JobID is the id carried on the terminal event, if any. On Cray
	// systems compute-node logs reference ALPS apids; Diagnose (and the
	// streaming Watcher) resolve them to scheduler job ids through the
	// ALPS placement log.
	JobID int64
}

// terminalCategories are the internal event categories that confirm a
// node failure. Scheduled shutdowns are excluded by intent. A kernel
// panic counts as terminal too — a panicking node is dead even when the
// subsequent shutdown line is missing from the log (production logging
// discrepancies, challenge #1); the refractory gap merges panic and
// shutdown into one detection.
var terminalCategories = map[string]bool{
	faults.NodeShutdown.Category():   true,
	faults.SilentShutdown.Category(): true,
	faults.KernelPanic.Category():    true,
	"nhc_admindown":                  true,
}

// IsTerminal reports whether a record confirms a node failure.
func IsTerminal(r *events.Record) bool {
	if !r.Stream.Internal() {
		return false
	}
	if !terminalCategories[r.Category] {
		return false
	}
	// Intended shutdowns (operator, SWO service windows) are excluded.
	return r.Field("intent") != "scheduled"
}

// detector accumulates confirmed failures record-by-record — the
// incremental form of Detect that Run's single-pass store traversal
// feeds alongside the job-table and apid-index builders. Records must
// arrive in time-sorted order (per node is enough: the refractory
// state is per node).
type detector struct {
	cfg  Config
	last map[cname.Name]time.Time
	out  []Detection
}

func newDetector(cfg Config) *detector {
	return &detector{cfg: cfg, last: map[cname.Name]time.Time{}}
}

// add folds one record into the detection state.
func (dt *detector) add(r *events.Record) {
	if !IsTerminal(r) {
		return
	}
	if prev, ok := dt.last[r.Component]; ok && r.Time.Sub(prev) < dt.cfg.RefractoryGap {
		dt.last[r.Component] = r.Time
		return
	}
	dt.last[r.Component] = r.Time
	dt.out = append(dt.out, Detection{
		Node:     r.Component,
		Time:     r.Time,
		Terminal: r.Category,
		JobID:    r.JobID,
	})
}

// Detect scans time-sorted records for confirmed failures, merging
// terminal events on one node within the refractory gap.
func Detect(recs []events.Record, cfg Config) []Detection {
	dt := newDetector(cfg)
	for i := range recs {
		dt.add(&recs[i])
	}
	return dt.out
}
