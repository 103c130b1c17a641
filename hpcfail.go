// Package hpcfail is the public API of the hpcfail library — a
// reproduction of "Systemic Assessment of Node Failures in HPC
// Production Platforms" (Das, Mueller, Rountree; IPDPS 2021).
//
// The library has three layers:
//
//   - a deterministic cluster fault simulator that models the paper's
//     five systems (Table I) and emits raw text logs in the production
//     formats (Cray console/messages, blade/cabinet controller, ERD/SEDC
//     and Slurm/Torque scheduler logs);
//   - parsers and an indexed event store for those formats;
//   - the holistic diagnosis pipeline: failure detection, internal ↔
//     external correlation, stack-trace root-cause inference, job
//     attribution, lead-time and false-positive analysis.
//
// Quick start:
//
//	profile, _ := hpcfail.SystemProfile("S1")
//	scenario, _ := hpcfail.Simulate(profile, start, start.AddDate(0, 0, 7), 42)
//	result := hpcfail.Diagnose(hpcfail.StoreRecords(scenario.Records))
//	for _, d := range result.Diagnoses {
//		fmt.Println(d.Detection.Node, d.Cause, d.AppTriggered)
//	}
//
// See examples/ for runnable programs and cmd/experiments for the
// harness that regenerates every table and figure of the paper.
package hpcfail

import (
	"context"
	"time"

	"hpcfail/internal/chaos"
	"hpcfail/internal/core"
	"hpcfail/internal/events"
	"hpcfail/internal/faults"
	"hpcfail/internal/faultsim"
	"hpcfail/internal/logparse"
	"hpcfail/internal/logstore"
	"hpcfail/internal/miner"
	"hpcfail/internal/remedy"
	"hpcfail/internal/server"
	"hpcfail/internal/topology"
)

// Re-exported core types. The aliases are the stable public names; the
// internal packages carry the implementations.
type (
	// SystemSpec describes one studied system (Table I row).
	SystemSpec = topology.Spec
	// Profile holds a system's calibrated fault-generation rates.
	Profile = faultsim.Profile
	// Scenario is a simulated system history: jobs, log records and
	// ground truth.
	Scenario = faultsim.Scenario
	// Failure is one ground-truth node failure.
	Failure = faultsim.Failure
	// Record is one structured log event.
	Record = events.Record
	// Store is the indexed event store the pipeline queries.
	Store = logstore.Store
	// PipelineConfig holds the diagnosis pipeline's windows.
	PipelineConfig = core.Config
	// Result is the pipeline output: detections and diagnoses.
	Result = core.Result
	// Detection is one confirmed node failure.
	Detection = core.Detection
	// Diagnosis is one failure's inferred root cause with evidence.
	Diagnosis = core.Diagnosis
	// Cause is a root-cause bucket.
	Cause = faults.Cause
	// Class is a coarse system layer.
	Class = faults.Class
	// LeadTimeSummary aggregates lead-time enhancement (Fig 13).
	LeadTimeSummary = core.LeadTimeSummary
)

// Root-cause buckets (see faults.Cause for documentation).
const (
	CauseUnknown       = faults.CauseUnknown
	CauseMCE           = faults.CauseMCE
	CauseCPUCorruption = faults.CauseCPUCorruption
	CauseHardwareOther = faults.CauseHardwareOther
	CauseKernelBug     = faults.CauseKernelBug
	CauseCPUStall      = faults.CauseCPUStall
	CauseFilesystemBug = faults.CauseFilesystemBug
	CauseOOM           = faults.CauseOOM
	CauseAppExit       = faults.CauseAppExit
	CauseSegFault      = faults.CauseSegFault
	CauseHungTask      = faults.CauseHungTask
)

// Systems lists the five studied system specs (Table I).
func Systems() []SystemSpec { return topology.Profiles() }

// SystemProfile returns the calibrated simulation profile for a system
// ("S1" … "S5").
func SystemProfile(id string) (Profile, error) { return faultsim.DefaultProfile(id) }

// Simulate runs the fault simulator over [start, end) with the given
// seed. Same inputs, same output — always.
func Simulate(p Profile, start, end time.Time, seed uint64) (*Scenario, error) {
	return faultsim.Generate(p, start, end, seed)
}

// StoreRecords builds an indexed store over in-memory records.
func StoreRecords(recs []Record) *Store { return logstore.New(recs) }

// WriteLogs renders a scenario's records into raw log files under dir
// (one file per stream, in the system's scheduler dialect).
func WriteLogs(dir string, scn *Scenario) error {
	return logstore.WriteDir(dir, scn.Records, scn.Profile.Spec.Scheduler)
}

// LoadLogs parses a log directory back into a store. Parse errors are
// returned alongside the (partial) store. Unreadable or empty files are
// skipped, never fatal; use LoadLogsReport for the full ingest ledger.
func LoadLogs(dir string, sched topology.SchedulerType) (*Store, []error, error) {
	return logstore.LoadDir(dir, sched)
}

// IngestReport is the per-stream ingestion ledger LoadLogsReport
// returns: records parsed, lines quarantined, out-of-order arrivals,
// files skipped with warnings, streams missing.
type IngestReport = logstore.IngestReport

// LoadLogsReport parses a log directory into a (possibly partial) store
// plus an IngestReport quantifying everything that was skipped,
// quarantined or reordered. Ingestion degrades gracefully: one bad file
// never aborts the load.
func LoadLogsReport(dir string, sched topology.SchedulerType) (*Store, *IngestReport, error) {
	return logstore.LoadDirReport(dir, sched)
}

// ErrInterrupted is wrapped by the error a context-cancelled replay
// returns (cmd/watch); a -checkpoint snapshot resumes it.
var ErrInterrupted = logstore.ErrInterrupted

// Chaos-harness surface: deterministic log fault injection for
// robustness testing. See internal/chaos for the fault model.
type (
	// ChaosConfig selects corruption modes and intensities.
	ChaosConfig = chaos.Config
	// ChaosReport is the injector's ground-truth corruption ledger.
	ChaosReport = chaos.Report
	// ChaosInjector applies a ChaosConfig to lines or records.
	ChaosInjector = chaos.Injector
	// Degradation names the stream families a corpus is missing.
	Degradation = core.Degradation
)

// ParseChaosSpec parses a -chaos flag value: either
// "mode=<name>,intensity=<0..1>[,seed=N]" or explicit per-fault keys
// ("drop=0.1,garble=0.05,seed=7").
func ParseChaosSpec(spec string) (ChaosConfig, error) { return chaos.ParseSpec(spec) }

// NewChaosInjector builds a deterministic fault injector: same config,
// same input, same corruption — always.
func NewChaosInjector(cfg ChaosConfig) *ChaosInjector { return chaos.New(cfg) }

// WriteLogsChaos renders a scenario's logs like WriteLogs but corrupts
// every stream at render time per cfg. The returned report is the
// injected ground truth, for checking ingestion accounting against.
func WriteLogsChaos(dir string, scn *Scenario, cfg ChaosConfig) (ChaosReport, error) {
	return logstore.WriteDirChaos(dir, scn.Records, scn.Profile.Spec.Scheduler, cfg)
}

// DefaultPipelineConfig returns the evaluation's correlation windows.
func DefaultPipelineConfig() PipelineConfig { return core.DefaultConfig() }

// Diagnose runs the full methodology — detect, correlate, attribute,
// classify — over a store with default windows.
func Diagnose(store *Store) *Result { return core.Run(store, core.DefaultConfig()) }

// DiagnoseWith runs the pipeline with custom windows.
func DiagnoseWith(store *Store, cfg PipelineConfig) *Result { return core.Run(store, cfg) }

// SummarizeLeadTimes aggregates lead-time enhancement over diagnoses
// (Fig 13).
func SummarizeLeadTimes(diags []Diagnosis) LeadTimeSummary {
	return core.SummarizeLeadTimes(diags)
}

// Recommendation is one Table VI-style operator action derived from
// measured behaviour.
type Recommendation = core.Recommendation

// Recommend derives the paper's findings → recommendations from a
// pipeline result.
func Recommend(res *Result) []Recommendation { return core.Recommend(res) }

// Watcher is the online (streaming) detector; see core.NewWatcher.
type Watcher = core.Watcher

// WatcherSnapshot is a watcher's serialisable detection state: a
// restored watcher continues with no duplicate and no missed
// detections. See Watcher.Snapshot / Watcher.Restore.
type WatcherSnapshot = core.WatcherSnapshot

// NewWatcher builds a streaming detector that invokes onDetection for
// each confirmed failure as its log records arrive.
func NewWatcher(onDetection func(Detection)) *Watcher {
	return core.NewWatcher(core.DefaultConfig(), onDetection)
}

// DiagnoseContext is Diagnose under a context: cancellation or deadline
// expiry stops the pipeline between per-failure diagnoses and returns
// the context's error with no partial result. The online service runs
// every query through this path so per-request timeouts reach the
// engine.
func DiagnoseContext(ctx context.Context, store *Store, cfg PipelineConfig) (*Result, error) {
	return core.RunContext(ctx, store, cfg)
}

// Engine is the incremental diagnosis pipeline: it holds live
// detection, correlation, job-table, apid and degradation state and
// updates all of it per ingested batch in cost proportional to the
// batch, not the corpus. After any sequence of ApplyBatch calls,
// Snapshot is value- and byte-identical to Diagnose over a store built
// from the concatenated batches; the differential harness in
// incremental_test.go proves that at every watermark. The online
// service applies deltas through one of these instead of rebuilding.
type Engine = core.Engine

// NewEngine builds an empty incremental pipeline with the default
// correlation windows.
func NewEngine() *Engine { return core.NewEngine(core.DefaultConfig()) }

// NewEngineWith is NewEngine with custom windows.
func NewEngineWith(cfg PipelineConfig) *Engine { return core.NewEngine(cfg) }

// SaveWatcherCheckpoint atomically persists a watcher's detection state
// (write-to-temp, rename); LoadWatcherCheckpoint restores it, reporting
// false with no error when the file does not exist. cmd/watch and the
// online service share this persistence.
func SaveWatcherCheckpoint(path string, w *Watcher) error { return core.SaveSnapshotFile(path, w) }

// LoadWatcherCheckpoint restores a checkpoint written by
// SaveWatcherCheckpoint into w.
func LoadWatcherCheckpoint(path string, w *Watcher) (bool, error) {
	return core.LoadSnapshotFile(path, w)
}

// Online-serving surface: the HTTP diagnosis service behind cmd/serve.
type (
	// ServeConfig tunes the online diagnosis service (admission bounds,
	// cache size, checkpoint path, replication).
	ServeConfig = server.Config
	// DiagnosisServer is a long-running HTTP service owning a live
	// corpus and watcher: batched ingest, cached/coalesced diagnosis
	// queries byte-identical to cmd/diagnose, SSE alarm streaming,
	// Prometheus metrics and graceful drain.
	DiagnosisServer = server.Server
	// IngestBatch is one stream's worth of raw log lines pushed to the
	// service.
	IngestBatch = server.IngestBatch
	// IngestResult accounts one accepted ingest request.
	IngestResult = server.IngestResult
)

// NewServer constructs the online diagnosis service with an empty
// corpus; Seed a bootstrap store, then serve its Handler.
func NewServer(cfg ServeConfig) *DiagnosisServer { return server.New(cfg) }

// Template-mining surface: online log-template discovery over the
// lines the static profiles reject (quarantined or unclassified), the
// bootstrap path for un-profiled systems. See internal/miner.
type (
	// MinerConfig tunes the online template miner (memory budget,
	// promotion thresholds, token limits). The zero value selects
	// sensible defaults.
	MinerConfig = miner.Config
	// TemplateMiner clusters unmatched log lines into templates online
	// under a bounded memory budget and promotes recurring or bursting
	// templates into candidate signatures.
	TemplateMiner = miner.Miner
	// MinerStats counts a miner's lifetime activity.
	MinerStats = miner.Stats
	// MinedTemplate is one live template's exported view.
	MinedTemplate = miner.TemplateView
	// MinedProfile is the canonical, serialisable template set a miner
	// exports — the bootstrap profile for a previously unknown daemon.
	MinedProfile = miner.Profile
	// MinedMatcher classifies raw lines against a MinedProfile; it
	// implements the classifier interface LoadLogsReportMined accepts.
	MinedMatcher = miner.Matcher
	// MinedClassifier is the pluggable reclaim hook: anything that maps
	// a raw line to a category. *MinedMatcher satisfies it.
	MinedClassifier = logparse.MinedClassifier
	// MinedCandidate is one template at the moment the miner promotes
	// it (TemplateMiner.OnPromote's argument).
	MinedCandidate = miner.Candidate
	// Candidate is one promoted mined signature surfaced by the online
	// watcher as a low-confidence detection kind.
	Candidate = core.Candidate
)

// NewMiner builds an online template miner. Set OnPromote on the
// returned miner to observe candidate promotions.
func NewMiner(cfg MinerConfig) *TemplateMiner { return miner.New(cfg) }

// NewMinedMatcher compiles a mined profile into a line classifier.
func NewMinedMatcher(p MinedProfile) *MinedMatcher { return miner.NewMatcher(p) }

// DecodeMinedProfile parses a profile previously written with
// MinedProfile.Encode (or exported via GET /v1/templates?format=profile).
func DecodeMinedProfile(data []byte) (MinedProfile, error) { return miner.DecodeProfile(data) }

// MergeMinedProfiles canonically merges profiles mined from separate
// corpora (or separate cuts of one corpus) into one.
func MergeMinedProfiles(ps ...MinedProfile) MinedProfile { return miner.MergeProfiles(ps...) }

// LoadLogsReportMined is LoadLogsReport with a mined-profile classifier
// reclaiming quarantined lines: lines the static parsers reject but mc
// matches become records (category = the mined slug) instead of ingest
// errors. mc == nil behaves exactly like LoadLogsReport.
func LoadLogsReportMined(dir string, sched topology.SchedulerType, mc MinedClassifier) (*Store, *IngestReport, error) {
	return logstore.LoadDirReportMined(dir, sched, mc)
}

// Closed-loop remediation surface: the SOP engine behind serve -remedy
// and cmd/remedy.
type (
	// RemedyConfig tunes the remediation engine: retries, per-SOP
	// timeouts, and the cluster-level safety guards (concurrent-drain
	// cap, cabinet blast radius, per-node cooldown).
	RemedyConfig = remedy.Config
	// RemedyEngine routes watcher conditions into prioritised SOP
	// queues, executes them with idempotency pre-checks, and records
	// every decision — refusals included — in an append-only ledger.
	RemedyEngine = remedy.Engine
	// RemedyTicket is one ledger entry; the full ledger replays into a
	// fresh engine for crash-safe restarts.
	RemedyTicket = remedy.Ticket
	// RemedyScore is the counterfactual scorecard of a remediated
	// scenario replay against simulator ground truth.
	RemedyScore = remedy.Score
)

// ReplayRemediation runs a generated scenario through the closed loop
// (watcher → SOP engine → simulated cluster) and scores the outcome
// against the scenario's ground-truth failures.
func ReplayRemediation(scn *Scenario, cfg RemedyConfig) (*remedy.ReplayResult, error) {
	return remedy.Replay(scn, remedy.ReplayConfig{Engine: cfg})
}
