package core

import (
	"time"

	"hpcfail/internal/alps"
	"hpcfail/internal/cname"
	"hpcfail/internal/events"
	"hpcfail/internal/faults"
	"hpcfail/internal/logstore"
	"hpcfail/internal/stacktrace"
	"hpcfail/internal/workload"
)

// Diagnosis is the pipeline's verdict on one detected failure.
type Diagnosis struct {
	// Detection is the underlying failure.
	Detection Detection
	// Cause is the inferred root-cause bucket.
	Cause faults.Cause
	// Class is the inferred layer (from Cause, or trace origin when the
	// trace says the manifesting layer differs from the origin).
	Class faults.Class
	// AppTriggered reports whether the origin is attributed to the
	// running application even if the failure manifested in the OS or
	// file system.
	AppTriggered bool
	// JobID is the attributed job (0 when none).
	JobID int64
	// KeySymbol is the stack-trace symbol that drove the
	// classification, when trace analysis was used.
	KeySymbol string
	// Confidence is a heuristic in (0, 1]. Pipelines running on a
	// degraded corpus (missing stream families) scale it down.
	Confidence float64
	// Degraded marks a verdict made from an incomplete corpus.
	Degraded bool
	// Note carries the degradation evidence note ("" when clean).
	Note string
	// InternalEvidence holds the precursor records that supported the
	// verdict, time-ascending.
	InternalEvidence []events.Record
	// ExternalIndicators holds early external records correlated to the
	// failure (empty for fail-stop failures).
	ExternalIndicators []events.Record
}

// Internal precursor categories that indicate trouble (as opposed to
// benign chatter); keyed to the cause they suggest when no stack trace
// is available.
var precursorCause = map[string]faults.Cause{
	faults.MCE.Category():                 faults.CauseMCE,
	faults.UncorrectableMemErr.Category(): faults.CauseMCE,
	faults.CorrectableMemErr.Category():   faults.CauseMCE,
	faults.CPUCorruption.Category():       faults.CauseCPUCorruption,
	faults.BIOSError.Category():           faults.CauseHardwareOther,
	faults.DiskError.Category():           faults.CauseHardwareOther,
	faults.GPUError.Category():            faults.CauseHardwareOther,
	faults.KernelBug.Category():           faults.CauseKernelBug,
	faults.CPUStall.Category():            faults.CauseCPUStall,
	faults.DriverBug.Category():           faults.CauseCPUStall,
	faults.FirmwareBug.Category():         faults.CauseCPUStall,
	faults.LustreBug.Category():           faults.CauseFilesystemBug,
	faults.DVSError.Category():            faults.CauseFilesystemBug,
	faults.InodeError.Category():          faults.CauseFilesystemBug,
	faults.OOMKiller.Category():           faults.CauseOOM,
	faults.PageAllocFailure.Category():    faults.CauseOOM,
	faults.MemOverallocation.Category():   faults.CauseOOM,
	faults.SegFault.Category():            faults.CauseSegFault,
	faults.AppExit.Category():             faults.CauseAppExit,
	faults.HungTask.Category():            faults.CauseHungTask,
}

// precursorPriority orders competing category evidence: specific
// hardware signals outrank generic software ones, and the segfault→
// page-alloc chain resolves to the segfault.
var precursorPriority = map[faults.Cause]int{
	faults.CauseMCE:           9,
	faults.CauseCPUCorruption: 9,
	faults.CauseHardwareOther: 8,
	faults.CauseSegFault:      7,
	faults.CauseAppExit:       7,
	faults.CauseFilesystemBug: 6,
	faults.CauseOOM:           5,
	faults.CauseKernelBug:     5,
	faults.CauseCPUStall:      4,
	faults.CauseHungTask:      2,
}

// externalIndicatorCategories are the external events accepted as early
// failure indicators. Benign SEDC threshold chatter is deliberately NOT
// here (Observation 3: it does not pinpoint failures).
var externalIndicatorCategories = map[string]bool{
	faults.ECHwError.Category(): true,
	faults.LinkError.Category(): true,
	faults.NVF.Category():       true,
	faults.L0SysdMCE.Category(): true,
}

// StoreView is the read surface diagnosis needs from a record store.
// Both the flat *logstore.Store and the sharded *logstore.ShardedStore
// satisfy it; the sharded form answers NodeWindow from the node's own
// shard, lock-free and without waiting for the merged global view.
type StoreView interface {
	All() []events.Record
	NodeWindow(node cname.Name, from, to time.Time) logstore.Span
}

// RootCauser classifies detected failures against a log store.
type RootCauser struct {
	Store StoreView
	Jobs  []workload.Job
	Cfg   Config
	// Apids resolves ALPS application ids (which compute-node logs
	// reference on Cray systems) to scheduler job ids. Built with
	// alps.IndexFromRecords; nil means ids pass through unchanged.
	Apids map[int64]int64

	// winCache memoizes NodeWindow lookups across Diagnose calls.
	// Repeated failures of one node within the refractory cadence ask for
	// overlapping or identical windows; entries are cheap because window
	// results are views into the store, not copies. The cache makes a
	// RootCauser unsafe for concurrent Diagnose — parallel pools hand
	// each worker its own clone (see diagnosePool).
	winCache map[windowKey]logstore.Span
}

// windowKey identifies one memoized NodeWindow lookup.
type windowKey struct {
	node     cname.Name
	from, to int64
}

// nodeWindow is Store.NodeWindow with memoization.
func (rc *RootCauser) nodeWindow(node cname.Name, from, to time.Time) logstore.Span {
	k := windowKey{node, from.UnixNano(), to.UnixNano()}
	if recs, ok := rc.winCache[k]; ok {
		return recs
	}
	recs := rc.Store.NodeWindow(node, from, to)
	if rc.winCache == nil {
		rc.winCache = make(map[windowKey]logstore.Span)
	}
	rc.winCache[k] = recs
	return recs
}

// clone returns a copy sharing the immutable inputs (store, jobs, apid
// index) but with its own memoization cache, for use by one worker
// goroutine.
func (rc *RootCauser) clone() *RootCauser {
	return &RootCauser{Store: rc.Store, Jobs: rc.Jobs, Cfg: rc.Cfg, Apids: rc.Apids}
}

// Diagnose runs root-cause inference for one detection.
func (rc *RootCauser) Diagnose(d Detection) Diagnosis {
	diag := Diagnosis{
		Detection: d,
		Cause:     faults.CauseUnknown,
		Class:     faults.ClassUnknown,
		JobID:     alps.Resolve(d.JobID, rc.Apids),
	}
	from := d.Time.Add(-rc.Cfg.InternalWindow)
	to := d.Time.Add(time.Second)
	internal := rc.nodeWindow(d.Node, from, to)

	// Pass 1: stack-trace module analysis (the paper's Table IV
	// method) — the innermost diagnostic frame of the latest oops
	// decides when available.
	var bestTrace stacktrace.Classification
	var haveTrace bool
	for i := 0; i < internal.Len(); i++ {
		r := internal.At(i)
		if !r.Stream.Internal() {
			continue
		}
		if enc := r.Field("trace"); enc != "" {
			cl := stacktrace.Classify(stacktrace.Decode(enc))
			if cl.Cause != faults.CauseUnknown && (!haveTrace || cl.Confidence >= bestTrace.Confidence) {
				bestTrace = cl
				haveTrace = true
			}
		}
		if r.JobID != 0 && diag.JobID == 0 {
			diag.JobID = alps.Resolve(r.JobID, rc.Apids)
		}
		if _, indicative := precursorCause[r.Category]; indicative ||
			r.Category == faults.KernelPanic.Category() || r.Category == faults.KernelOops.Category() {
			diag.InternalEvidence = append(diag.InternalEvidence, *r)
		}
	}

	// Pass 2: category-signature voting for failures without (or beyond)
	// traces.
	catCause := faults.CauseUnknown
	catPriority := -1
	for i := range diag.InternalEvidence {
		c, ok := precursorCause[diag.InternalEvidence[i].Category]
		if !ok {
			continue
		}
		if p := precursorPriority[c]; p > catPriority {
			catPriority = p
			catCause = c
		}
	}

	switch {
	case haveTrace && catCause == faults.CauseUnknown:
		diag.Cause = bestTrace.Cause
		diag.KeySymbol = bestTrace.KeySymbol
		diag.Confidence = bestTrace.Confidence
	case haveTrace:
		// Both sources: prefer agreement; on conflict the higher-priority
		// category signal wins but trace origin still informs Class.
		if precursorPriority[bestTrace.Cause] >= catPriority {
			diag.Cause = bestTrace.Cause
			diag.KeySymbol = bestTrace.KeySymbol
			diag.Confidence = bestTrace.Confidence
		} else {
			diag.Cause = catCause
			diag.Confidence = 0.7
		}
	case catCause != faults.CauseUnknown:
		diag.Cause = catCause
		diag.Confidence = 0.6
	default:
		// No recognisable precursors: the Observation 9 unknowns.
		diag.Cause = faults.CauseUnknown
		diag.Confidence = 0.2
	}

	// Terminal admindown without stronger evidence means the NHC killed
	// the node over an application problem.
	if d.Terminal == "nhc_admindown" && (diag.Cause == faults.CauseUnknown || diag.Cause == faults.CauseHungTask) {
		diag.Cause = faults.CauseAppExit
		diag.Confidence = 0.6
	}

	diag.Class = diag.Cause.Class()
	// Job attribution: a job-linked failure of an application-rooted
	// cause is application-triggered even when it manifested in the FS
	// or kernel (Observation 7).
	if diag.JobID == 0 {
		if j := workload.JobOnNode(rc.Jobs, d.Node, d.Time); j != nil && diag.Cause.ApplicationTriggered() {
			diag.JobID = j.ID
		}
	}
	diag.AppTriggered = diag.Cause.ApplicationTriggered() && diag.JobID != 0
	if haveTrace && bestTrace.Origin == faults.ClassApplication {
		diag.AppTriggered = diag.JobID != 0 || diag.Cause.ApplicationTriggered()
	}

	// External early indicators (for lead-time analysis). Only node-
	// scoped indicators attribute to THIS failure: blade-scoped events
	// (link errors) may belong to a sibling's failure in the same
	// blade-local episode, which would inflate the lead.
	extFrom := d.Time.Add(-rc.Cfg.ExternalWindow)
	external := rc.nodeWindow(d.Node, extFrom, d.Time)
	for i := 0; i < external.Len(); i++ {
		if r := external.At(i); r.Stream.External() && externalIndicatorCategories[r.Category] {
			diag.ExternalIndicators = append(diag.ExternalIndicators, *r)
		}
	}
	events.SortByTime(diag.ExternalIndicators)
	return diag
}

// DiagnoseAll runs detection and diagnosis over the whole store.
func (rc *RootCauser) DiagnoseAll() []Diagnosis {
	dets := Detect(rc.Store.All(), rc.Cfg)
	out := make([]Diagnosis, len(dets))
	for i, d := range dets {
		out[i] = rc.Diagnose(d)
	}
	return out
}
