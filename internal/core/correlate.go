package core

import (
	"time"

	"hpcfail/internal/cname"
	"hpcfail/internal/faults"
	"hpcfail/internal/logstore"
)

// NHFOutcome classifies one node-heartbeat-fault event by what actually
// happened to the node (the Fig 6 breakdown).
type NHFOutcome int

const (
	// NHFOutcomeFailed: a confirmed failure accompanied the NHF.
	NHFOutcomeFailed NHFOutcome = iota
	// NHFOutcomePowerOff: an intended shutdown preceded the NHF.
	NHFOutcomePowerOff
	// NHFOutcomeSkipped: neither — a transient skip.
	NHFOutcomeSkipped
)

// String names the outcome.
func (o NHFOutcome) String() string {
	switch o {
	case NHFOutcomeFailed:
		return "failed"
	case NHFOutcomePowerOff:
		return "poweroff"
	default:
		return "skipped"
	}
}

// NHFAnalysis is one NHF event with its inferred outcome.
type NHFAnalysis struct {
	Node    cname.Name
	Time    time.Time
	Outcome NHFOutcome
}

// Correlator answers the external-influence questions (Figs 5–7): which
// health faults correspond to real failures, and how often failures sit
// on blades/cabinets that logged health faults.
type Correlator struct {
	Store      *logstore.Store
	Detections []Detection
	Cfg        Config

	// detIx is the lazily built per-node detection index behind
	// failureNear. First use builds it, so a Correlator must not be
	// shared across goroutines before one of the Analyze methods has run.
	detIx *DetectionIndex
}

// index returns the per-node detection index, building it on first use.
func (c *Correlator) index() *DetectionIndex {
	if c.detIx == nil {
		c.detIx = NewDetectionIndex(c.Detections)
	}
	return c.detIx
}

// failureNear reports whether any detection on the node falls within
// ±window of t.
func (c *Correlator) failureNear(node cname.Name, t time.Time, window time.Duration) bool {
	return c.index().AnyBetween(node, t.Add(-window), t.Add(window))
}

// scheduledShutdownNear reports whether the node logged an intended
// shutdown within ±window of t.
func (c *Correlator) scheduledShutdownNear(node cname.Name, t time.Time, window time.Duration) bool {
	win := c.Store.NodeWindow(node, t.Add(-window), t.Add(window))
	for i := 0; i < win.Len(); i++ {
		r := win.At(i)
		if r.Category == faults.NodeShutdown.Category() && r.Field("intent") == "scheduled" {
			return true
		}
	}
	return false
}

// AnalyzeNHFs classifies every NHF event in the store.
func (c *Correlator) AnalyzeNHFs() []NHFAnalysis {
	var out []NHFAnalysis
	nhfs := c.Store.Category(faults.NHF.Category())
	for i := 0; i < nhfs.Len(); i++ {
		r := nhfs.At(i)
		a := NHFAnalysis{Node: r.Component, Time: r.Time}
		switch {
		case c.failureNear(r.Component, r.Time, c.Cfg.ConfirmWindow):
			a.Outcome = NHFOutcomeFailed
		case c.scheduledShutdownNear(r.Component, r.Time, c.Cfg.ConfirmWindow):
			a.Outcome = NHFOutcomePowerOff
		default:
			a.Outcome = NHFOutcomeSkipped
		}
		out = append(out, a)
	}
	return out
}

// NVFAnalysis is one node-voltage-fault event with its failure
// correspondence.
type NVFAnalysis struct {
	Node   cname.Name
	Time   time.Time
	Failed bool
}

// AnalyzeNVFs classifies every NVF event (Fig 5's 67–97 %).
func (c *Correlator) AnalyzeNVFs() []NVFAnalysis {
	var out []NVFAnalysis
	nvfs := c.Store.Category(faults.NVF.Category())
	for i := 0; i < nvfs.Len(); i++ {
		r := nvfs.At(i)
		out = append(out, NVFAnalysis{
			Node:   r.Component,
			Time:   r.Time,
			Failed: c.failureNear(r.Component, r.Time, c.Cfg.ConfirmWindow),
		})
	}
	return out
}

// FaultCorrespondence is the fraction of events of a class that
// co-occurred with failures.
func FaultCorrespondence(failed, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(failed) / float64(total)
}

// bladeFaultCategories are the blade/cabinet health-fault categories
// used for the Fig 7 correlation.
var bladeFaultCategories = func() map[string]bool {
	m := map[string]bool{}
	for _, t := range faults.HealthFaultTypes() {
		m[t.Category()] = true
	}
	return m
}()

// BladeCabinetCorrelation computes, over all detections, the fraction
// whose blade (and cabinet) logged a health fault within
// ±BladeFaultWindow of the failure (Fig 7's 23–59 % and 19–58 %).
func (c *Correlator) BladeCabinetCorrelation() (bladeFrac, cabFrac float64) {
	if len(c.Detections) == 0 {
		return 0, 0
	}
	bladeHits, cabHits := 0, 0
	w := c.Cfg.BladeFaultWindow
	for _, d := range c.Detections {
		blade := d.Node.BladeName()
		cab := d.Node.CabinetName()
		if c.componentFaultNear(blade, d.Time, w) {
			bladeHits++
		}
		if c.componentFaultNear(cab, d.Time, w) {
			cabHits++
		}
	}
	n := float64(len(c.Detections))
	return float64(bladeHits) / n, float64(cabHits) / n
}

// componentFaultNear reports a health fault logged AT the component
// level (not its children) within ±window of t.
func (c *Correlator) componentFaultNear(comp cname.Name, t time.Time, window time.Duration) bool {
	var recs logstore.Span
	switch comp.Level() {
	case cname.LevelBlade:
		recs = c.Store.BladeWindow(comp, t.Add(-window), t.Add(window))
	case cname.LevelCabinet:
		recs = c.Store.CabinetWindow(comp, t.Add(-window), t.Add(window))
	default:
		return false
	}
	for i := 0; i < recs.Len(); i++ {
		if r := recs.At(i); r.Component == comp && bladeFaultCategories[r.Category] {
			return true
		}
	}
	return false
}

// UniqueWarningComponents counts distinct components that logged a given
// category in [from, to) — the Fig 8 unique-blade counts.
func UniqueWarningComponents(store *logstore.Store, category string, from, to time.Time) int {
	seen := map[cname.Name]bool{}
	win := store.CategoryWindow(category, from, to)
	for i := 0; i < win.Len(); i++ {
		if r := win.At(i); r.Component.IsValid() {
			seen[r.Component] = true
		}
	}
	return len(seen)
}
