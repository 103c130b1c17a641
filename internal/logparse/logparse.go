// Package logparse parses raw text logs back into structured events —
// the inverse of loggen, and the first stage of the diagnosis pipeline.
//
// Internal (console/messages/consumer) lines carry no category tag, so
// the parser classifies kernel message text against a pattern table,
// the same way production log miners recognise "Kernel panic", MCE dumps
// or LustreError lines. Multi-line "Call Trace:" dumps are reassembled
// onto their owning record. Parsing is tolerant: unrecognisable lines
// are reported, not fatal (production logs have missing and partial
// information — the paper's challenge #1).
package logparse

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"hpcfail/internal/cname"
	"hpcfail/internal/events"
	"hpcfail/internal/loggen"
	"hpcfail/internal/stacktrace"
	"hpcfail/internal/textmatch"
	"hpcfail/internal/topology"
	"hpcfail/internal/workload"
)

// tsFormat mirrors loggen's timestamp format.
const tsFormat = "2006-01-02T15:04:05.000000Z07:00"
const torqueTSFormat = "01/02/2006 15:04:05.000000"

// categoryPattern classifies internal log messages. Checked in order;
// first match wins, so more specific substrings come first.
var categoryPatterns = []struct {
	sub string
	cat string
}{
	{"shutdown: scheduled by operator", "node_shutdown"},
	{"halting: system shutdown", "node_shutdown"},
	{"halting: no prior symptoms", "silent_shutdown"},
	{"boot: kernel up", "node_boot"},
	{"Kernel panic - not syncing", "kernel_panic"},
	{"BUG: unable to handle kernel paging request", "kernel_oops"},
	{"kernel BUG:", "kernel_bug"},
	{"Machine Check Exception", "mce"},
	{"mcelog:", "mce"},
	{"EDAC MC0: corrected memory error", "mem_err_correctable"},
	{"processor context corrupt", "cpu_corruption"},
	{"BIOS reported platform error", "bios_error"},
	{"blk_update_request: I/O error", "disk_error"},
	{"rcu_sched self-detected stall", "cpu_stall"},
	{"firmware: watchdog handshake lost", "firmware_bug"},
	{"LustreError: 11-0", "lustre_bug"},
	{"LustreError: 30-3", "lustre_io_error"},
	{"DVS: file system request hang", "dvs_error"},
	{"page allocation failure", "page_alloc_failure"},
	{"page fault lock contention", "page_fault_lock"},
	{"Out of memory: Kill process", "oom_killer"},
	{"segfault at", "segfault"},
	{"blocked for more than 120 seconds", "hung_task_timeout"},
	{"type:2; severity:80", "bios_class_error"},
	{"NVRM: Xid", "gpu_error"},
	{"trap invalid opcode", "software_trap"},
	{"NHC: abnormal application exit", "app_exit_abnormal"},
	{"set to admindown", "nhc_admindown"},
	{"NHC:", "nhc"},
	{"node state transition", "node_state"},
	{"slurmstepd: user-killed", "user_killed"},
}

// classifyMatcher is the Aho–Corasick automaton compiled from
// categoryPatterns. It scans each message once instead of running
// strings.Contains per pattern; FindFirst's lowest-index-wins semantics
// reproduce the naive first-match loop exactly (see classifyNaive and
// the equivalence tests in classify_test.go).
var classifyMatcher = textmatch.New(func() []string {
	subs := make([]string, len(categoryPatterns))
	for i, p := range categoryPatterns {
		subs[i] = p.sub
	}
	return subs
}())

// classify maps an internal message onto its event category;
// "unclassified" when no pattern matches.
func classify(msg string) string {
	if i := classifyMatcher.FindFirst(msg); i >= 0 {
		return categoryPatterns[i].cat
	}
	return "unclassified"
}

// classifyNaive is the original per-pattern scan, kept as the reference
// implementation for the classifier equivalence tests.
func classifyNaive(msg string) string {
	for _, p := range categoryPatterns {
		if strings.Contains(msg, p.sub) {
			return p.cat
		}
	}
	return "unclassified"
}

// ParseError reports one unparseable line.
type ParseError struct {
	Line int
	Text string
	Err  error
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("logparse: line %d: %v: %q", e.Line, e.Err, truncate(e.Text, 80))
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// StreamReport accounts one stream's parse outcome — the per-stream
// quarantine ledger the ingestion layer surfaces instead of failing on
// malformed input. Counts plus a few samples, never a hard error.
type StreamReport struct {
	// Stream is the parsed stream.
	Stream events.Stream
	// Lines is the number of non-blank input lines.
	Lines int
	// Parsed is the number of records produced. For internal streams
	// this is below Lines even on clean input: Call Trace continuation
	// lines fold into their owning record.
	Parsed int
	// Quarantined is the number of lines rejected as malformed.
	Quarantined int
	// Reordered counts records whose timestamp precedes the previous
	// record's — out-of-order arrival within the stream.
	Reordered int
	// Samples holds up to maxQuarantineSamples quarantined lines for
	// operator triage.
	Samples []string
	// Errs retains the full ParseError list for callers that need it.
	Errs []error
}

// maxQuarantineSamples bounds the raw lines retained per stream.
const maxQuarantineSamples = 3

// EachQuarantined calls fn with every quarantined raw line the report
// retains, in file order and untruncated. Samples is a display ledger
// capped at maxQuarantineSamples and cut to 120 bytes; consumers that
// need the full quarantine stream — the template miner above all —
// walk the Errs list instead, which carries each ParseError's complete
// original text. No new ledger field needed.
func (r *StreamReport) EachQuarantined(fn func(line string)) {
	for _, e := range r.Errs {
		if pe, ok := e.(*ParseError); ok {
			fn(pe.Text)
		}
	}
}

// ParseLinesReport is ParseLines with per-stream error accounting: the
// records that parsed plus a StreamReport quantifying what did not.
func ParseLinesReport(stream events.Stream, sched topology.SchedulerType, lines []string) ([]events.Record, StreamReport) {
	nonBlank := 0
	for _, l := range lines {
		if strings.TrimSpace(l) != "" {
			nonBlank++
		}
	}
	recs, errs := ParseLines(stream, sched, lines)
	return recs, BuildStreamReport(stream, nonBlank, recs, errs)
}

// BuildStreamReport assembles the per-stream quarantine ledger from a
// parse outcome. It is shared by the sequential loader and the sharded
// streaming loader so both produce identical accounting: nonBlank is the
// stream's non-blank line count, recs and errs the (re)assembled parse
// output in file order.
func BuildStreamReport(stream events.Stream, nonBlank int, recs []events.Record, errs []error) StreamReport {
	rep := StreamReport{Stream: stream, Lines: nonBlank}
	rep.Parsed = len(recs)
	rep.Quarantined = len(errs)
	rep.Errs = errs
	for _, e := range errs {
		if len(rep.Samples) >= maxQuarantineSamples {
			break
		}
		if pe, ok := e.(*ParseError); ok {
			rep.Samples = append(rep.Samples, truncate(pe.Text, 120))
		}
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			rep.Reordered++
		}
	}
	return rep
}

// ParseLines parses one stream's raw lines. The stream selects the
// format; sched selects the scheduler dialect. Unparseable lines produce
// ParseErrors and are skipped.
func ParseLines(stream events.Stream, sched topology.SchedulerType, lines []string) ([]events.Record, []error) {
	switch stream {
	case events.StreamConsole, events.StreamMessages, events.StreamConsumer:
		return parseInternal(stream, lines)
	case events.StreamControllerBC, events.StreamControllerCC, events.StreamERD:
		return parseTagged(stream, lines)
	case events.StreamScheduler:
		if sched == topology.SchedulerTorque {
			return parseTorque(lines)
		}
		return parseSlurm(lines)
	case events.StreamALPS:
		return parseALPS(lines)
	default:
		return nil, []error{fmt.Errorf("logparse: unknown stream %v", stream)}
	}
}

// splitPrefix splits "{ts} {comp} {daemon}: {rest}" and returns the
// parsed pieces.
func splitPrefix(line string) (ts time.Time, comp cname.Name, daemon, rest string, err error) {
	sp1 := strings.IndexByte(line, ' ')
	if sp1 < 0 {
		return ts, comp, "", "", fmt.Errorf("no timestamp")
	}
	ts, err = parseTS(line[:sp1])
	if err != nil {
		return ts, comp, "", "", err
	}
	line = line[sp1+1:]
	sp2 := strings.IndexByte(line, ' ')
	if sp2 < 0 {
		return ts, comp, "", "", fmt.Errorf("no component")
	}
	compStr := line[:sp2]
	if compStr != "-" {
		comp, err = cname.Parse(compStr)
		if err != nil {
			return ts, comp, "", "", err
		}
	}
	line = line[sp2+1:]
	colon := strings.Index(line, ": ")
	if colon < 0 {
		return ts, comp, "", "", fmt.Errorf("no daemon tag")
	}
	return ts, comp, line[:colon], line[colon+2:], nil
}

// parseInternal handles console/messages/consumer lines including
// multi-line call traces.
func parseInternal(stream events.Stream, lines []string) ([]events.Record, []error) {
	recs := make([]events.Record, 0, len(lines))
	var errs []error
	attrs := newAttrSlab(len(lines))
	var traceLines []string // pending raw trace lines for the last record
	flushTrace := func() {
		if len(traceLines) == 0 || len(recs) == 0 {
			traceLines = nil
			return
		}
		tr, _ := stacktrace.ParseTrace(traceLines)
		if len(tr.Frames) > 0 {
			recs[len(recs)-1].SetField("trace", tr.Encode())
		}
		traceLines = nil
	}
	for i, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		ts, comp, _, rest, err := splitPrefix(line)
		if err != nil {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: err})
			continue
		}
		// Trace continuation?
		trimmed := strings.TrimSpace(rest)
		if strings.HasPrefix(trimmed, "Call Trace:") {
			flushTrace()
			traceLines = append(traceLines, "Call Trace:")
			continue
		}
		if len(traceLines) > 0 {
			if _, ok := stacktrace.ParseFrame(trimmed); ok {
				traceLines = append(traceLines, trimmed)
				continue
			}
			flushTrace()
		}
		// A record line: "<N> msg [apid=K]".
		sev := events.SevInfo
		if strings.HasPrefix(rest, "<") {
			if end := strings.Index(rest, "> "); end > 0 {
				if lvl, err := strconv.Atoi(rest[1:end]); err == nil {
					sev = loggen.SeverityFromPrintk(lvl)
					rest = rest[end+2:]
				}
			}
		}
		var jobID int64
		if idx := strings.LastIndex(rest, " apid="); idx >= 0 {
			if v, err := strconv.ParseInt(rest[idx+6:], 10, 64); err == nil {
				jobID = v
				rest = rest[:idx]
			}
		}
		// Strip trailing structured k=v tokens back into fields, last
		// token first: of a repeated key the leftmost value wins.
		attrs.begin()
		for {
			sp := strings.LastIndexByte(rest, ' ')
			if sp < 0 {
				break
			}
			tok := rest[sp+1:]
			if !isKVToken(tok) {
				break
			}
			eq := strings.IndexByte(tok, '=')
			attrs.add(intern(tok[:eq]), intern(tok[eq+1:]))
			rest = rest[:sp]
		}
		if strings.Contains(rest, "scheduled by operator") {
			attrs.add("intent", "scheduled")
		}
		recs = append(recs, events.Record{
			Time: ts, Stream: stream, Component: comp,
			Severity: sev, Category: classify(rest), Msg: rest, JobID: jobID,
			Fields: attrs.fields(),
		})
	}
	flushTrace()
	return recs, errs
}

// parseTagged handles controller and ERD lines:
// "{ts} {comp} {daemon}: {category} {SEV} {msg} |k=v k=v".
func parseTagged(stream events.Stream, lines []string) ([]events.Record, []error) {
	recs := make([]events.Record, 0, len(lines))
	var errs []error
	attrs := newAttrSlab(len(lines))
	for i, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		ts, comp, _, rest, err := splitPrefix(line)
		if err != nil {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: err})
			continue
		}
		var fieldsPart string
		if idx := strings.Index(rest, " |"); idx >= 0 {
			fieldsPart = rest[idx+2:]
			rest = rest[:idx]
		}
		cat, rest, found := strings.Cut(rest, " ")
		if !found {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: fmt.Errorf("missing category/severity")})
			continue
		}
		sevTok, msg, _ := strings.Cut(rest, " ")
		sev, err := events.ParseSeverity(sevTok)
		if err != nil {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: err})
			continue
		}
		attrs.begin()
		parseFieldsInto(&attrs, fieldsPart)
		recs = append(recs, events.Record{
			Time: ts, Stream: stream, Component: comp,
			Severity: sev, Category: intern(cat), Msg: msg,
			Fields: attrs.fields(),
		})
	}
	return recs, errs
}

// isKVToken reports whether tok looks like a structured "key=value"
// suffix: a lowercase snake_case key, '=', and a non-empty space-free
// value.
func isKVToken(tok string) bool {
	eq := strings.IndexByte(tok, '=')
	if eq <= 0 || eq == len(tok)-1 {
		return false
	}
	for _, c := range tok[:eq] {
		if (c < 'a' || c > 'z') && c != '_' {
			return false
		}
	}
	return true
}

// parseFieldsInto parses "k=v k2=v2" where values may contain spaces
// (a token without '=' continues the previous value) into the record
// being built. A value is the span of s from after its '=' to the end
// of its last token.
func parseFieldsInto(attrs *attrSlab, s string) {
	if s == "" {
		return
	}
	var key string
	var vFrom, vTo int
	for off := 0; off <= len(s); {
		end := strings.IndexByte(s[off:], ' ')
		if end < 0 {
			end = len(s)
		} else {
			end += off
		}
		tok := s[off:end]
		if eq := strings.IndexByte(tok, '='); eq > 0 {
			if key != "" {
				attrs.add(intern(key), intern(s[vFrom:vTo]))
			}
			key, vFrom, vTo = tok[:eq], off+eq+1, end
		} else if key != "" {
			vTo = end
		}
		off = end + 1
	}
	if key != "" {
		attrs.add(intern(key), intern(s[vFrom:vTo]))
	}
}

// attrSlab collects the attributes of one parse call's records in
// shared backing chunks. The record being built owns the run at the
// tail, kept sorted by key with one entry per key (a repeated key takes
// the later value); fields hands the run to the record as a sub-slice
// capped at its end (cap == len), so an append to one record's Fields
// reallocates instead of landing in the next record's run. A full chunk
// is followed by a fresh one, never copied: records keep pointing where
// their run was written.
type attrSlab struct {
	buf   []events.Attr
	start int // first attribute of the record being built
	chunk int // capacity of each chunk
}

func newAttrSlab(lines int) attrSlab {
	return attrSlab{chunk: min(max(2*lines, 16), 4096)}
}

// begin starts the next record's run, dropping the run of a record that
// was abandoned before fields was called.
func (s *attrSlab) begin() { s.buf = s.buf[:s.start] }

// add sets k=v in the current run.
func (s *attrSlab) add(k, v string) {
	run := s.buf[s.start:]
	i := 0
	for i < len(run) && run[i].K < k {
		i++
	}
	if i < len(run) && run[i].K == k {
		run[i].V = v
		return
	}
	if len(s.buf) == cap(s.buf) {
		nb := make([]events.Attr, len(run), max(s.chunk, 2*len(run)+1))
		copy(nb, run)
		s.buf, s.start = nb, 0
	}
	s.buf = append(s.buf, events.Attr{})
	run = s.buf[s.start:]
	copy(run[i+1:], run[i:])
	run[i] = events.Attr{K: k, V: v}
}

// fields ends the current run and returns it, nil when empty.
func (s *attrSlab) fields() events.Attrs {
	if len(s.buf) == s.start {
		return nil
	}
	run := s.buf[s.start:len(s.buf):len(s.buf)]
	s.start = len(s.buf)
	return run
}

// parseALPS handles "ts apsched: CATEGORY jobid=N apid=M [status=S] [nodes=...]".
func parseALPS(lines []string) ([]events.Record, []error) {
	recs := make([]events.Record, 0, len(lines))
	var errs []error
	attrs := newAttrSlab(len(lines))
	for i, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: fmt.Errorf("no timestamp")})
			continue
		}
		ts, err := parseTS(line[:sp])
		if err != nil {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: err})
			continue
		}
		rest := strings.TrimPrefix(line[sp+1:], "apsched: ")
		cat, toks, _ := strings.Cut(rest, " ")
		if cat == "" {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: fmt.Errorf("missing category")})
			continue
		}
		r := events.Record{Time: ts, Stream: events.StreamALPS, Severity: events.SevInfo, Category: intern(cat)}
		attrs.begin()
		ok := true
		for toks != "" {
			var tok string
			tok, toks, _ = strings.Cut(toks, " ")
			eq := strings.IndexByte(tok, '=')
			if eq <= 0 {
				continue
			}
			k, v := tok[:eq], tok[eq+1:]
			switch k {
			case "jobid":
				id, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: fmt.Errorf("bad jobid %q", v)})
					ok = false
				}
				r.JobID = id
			case "apid", "status", "nodes":
				attrs.add(intern(k), intern(v))
			}
		}
		if !ok {
			continue
		}
		r.Fields = attrs.fields()
		if st := r.Field("status"); st != "" && st != "0" {
			r.Severity = events.SevWarning
		}
		var buf [64]byte
		b := append(buf[:0], "apsched: "...)
		b = append(b, r.Category...)
		b = append(b, " apid "...)
		b = append(b, r.Field("apid")...)
		b = append(b, " (job "...)
		b = strconv.AppendInt(b, r.JobID, 10)
		r.Msg = string(append(b, ')'))
		recs = append(recs, r)
	}
	return recs, errs
}

// parseSlurm handles "ts slurmctld: JobId=N Action=... K=V ...".
func parseSlurm(lines []string) ([]events.Record, []error) {
	recs := make([]events.Record, 0, len(lines))
	var errs []error
	attrs := newAttrSlab(len(lines))
	for i, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		sp := strings.IndexByte(line, ' ')
		if sp < 0 {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: fmt.Errorf("no timestamp")})
			continue
		}
		ts, err := parseTS(line[:sp])
		if err != nil {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: err})
			continue
		}
		rest := strings.TrimPrefix(line[sp+1:], "slurmctld: ")
		r, err := parseSchedulerKVs(&attrs, ts, rest)
		if err != nil {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: err})
			continue
		}
		r.Severity = schedulerSeverity(&r)
		r.Msg = schedulerMsg(&r)
		recs = append(recs, r)
	}
	return recs, errs
}

// parseTorque handles "ts;CODE;N.sdb;Action=... K=V ...".
func parseTorque(lines []string) ([]events.Record, []error) {
	recs := make([]events.Record, 0, len(lines))
	var errs []error
	attrs := newAttrSlab(len(lines))
	for i, line := range lines {
		if strings.TrimSpace(line) == "" {
			continue
		}
		parts := strings.SplitN(line, ";", 4)
		if len(parts) != 4 {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: fmt.Errorf("not a torque record")})
			continue
		}
		ts, err := time.Parse(torqueTSFormat, parts[0])
		if err != nil {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: err})
			continue
		}
		r, err := parseSchedulerKVs(&attrs, ts, parts[3])
		if err != nil {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: err})
			continue
		}
		// The job id lives in the record key "N.sdb"; it overrides the
		// payload's JobId.
		idStr := strings.TrimSuffix(parts[2], ".sdb")
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			errs = append(errs, &ParseError{Line: i + 1, Text: line, Err: fmt.Errorf("bad job key %q", parts[2])})
			continue
		}
		r.JobID = id
		r.Severity = schedulerSeverity(&r)
		r.Msg = schedulerMsg(&r)
		recs = append(recs, r)
	}
	return recs, errs
}

// parseSchedulerKVs parses the shared scheduler payload into a record
// without Severity and Msg, which depend on the job id the caller
// settles.
func parseSchedulerKVs(attrs *attrSlab, ts time.Time, s string) (events.Record, error) {
	r := events.Record{Time: ts, Stream: events.StreamScheduler}
	attrs.begin()
	for s != "" {
		var tok string
		tok, s, _ = strings.Cut(s, " ")
		eq := strings.IndexByte(tok, '=')
		if eq <= 0 {
			continue
		}
		k, v := tok[:eq], tok[eq+1:]
		switch k {
		case "JobId":
			id, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return r, fmt.Errorf("bad JobId %q", v)
			}
			r.JobID = id
		case "Action":
			r.Category = intern(v)
		case "App":
			attrs.add("app", intern(v))
		case "User":
			attrs.add("user", intern(v))
		case "State":
			attrs.add("state", intern(v))
		case "ExitCode":
			attrs.add("exit_code", intern(v))
		case "ReqMem":
			attrs.add("req_mem_mb", intern(strings.TrimSuffix(v, "M")))
		case "Node":
			n, err := cname.Parse(v)
			if err != nil {
				return r, err
			}
			r.Component = n
		case "NodeList", "exec_host":
			attrs.add("nodes", v)
		}
	}
	if r.Category == "" {
		return r, fmt.Errorf("missing Action")
	}
	r.Fields = attrs.fields()
	return r, nil
}

// schedulerSeverity reconstructs the severity convention of
// workload.EndEvent.
func schedulerSeverity(r *events.Record) events.Severity {
	if r.Category != "job_end" {
		return events.SevInfo
	}
	st, err := workload.ParseState(r.Field("state"))
	if err != nil {
		return events.SevWarning
	}
	switch {
	case st == workload.StateCompleted:
		return events.SevInfo
	case st == workload.StateNodeFail:
		return events.SevError
	default:
		return events.SevWarning
	}
}

// schedulerMsg renders a canonical message for parsed scheduler records
// (the raw formats carry no free-text message).
func schedulerMsg(r *events.Record) string {
	var buf [96]byte
	b := buf[:0]
	switch r.Category {
	case "job_start":
		b = append(b, "job "...)
		b = strconv.AppendInt(b, r.JobID, 10)
		b = append(b, " ("...)
		b = append(b, r.Field("app")...)
		b = append(b, ") started"...)
	case "job_end":
		b = append(b, "job "...)
		b = strconv.AppendInt(b, r.JobID, 10)
		b = append(b, " ("...)
		b = append(b, r.Field("app")...)
		b = append(b, ") ended state="...)
		b = append(b, r.Field("state")...)
		b = append(b, " exit="...)
		b = append(b, r.Field("exit_code")...)
	case "job_epilogue":
		b = append(b, "epilogue: cleaning job "...)
		b = strconv.AppendInt(b, r.JobID, 10)
	default:
		return r.Category
	}
	return string(b)
}

// JobTableBuilder reconstructs the job table one record at a time — the
// incremental form of JobsFromRecords, used by pipelines that fold the
// job table, apid index and failure detection into a single store
// traversal. Feed every record to Add (non-scheduler records are
// ignored), then call Jobs.
type JobTableBuilder struct {
	byID  map[int64]*workload.Job
	order []int64
}

// NewJobTableBuilder returns an empty builder.
func NewJobTableBuilder() *JobTableBuilder {
	return &JobTableBuilder{byID: map[int64]*workload.Job{}}
}

// Add folds one record into the table.
func (b *JobTableBuilder) Add(r *events.Record) {
	if r.Stream != events.StreamScheduler || r.JobID == 0 {
		return
	}
	j, ok := b.byID[r.JobID]
	if !ok {
		j = &workload.Job{ID: r.JobID}
		b.byID[r.JobID] = j
		b.order = append(b.order, r.JobID)
	}
	switch r.Category {
	case "job_start":
		j.Start = r.Time
		j.App = r.Field("app")
		j.User = r.Field("user")
		if nodes, err := workload.ParseNodesString(r.Field("nodes")); err == nil {
			j.Nodes = nodes
		}
		if v, err := strconv.Atoi(r.Field("req_mem_mb")); err == nil {
			j.ReqMemMB = v
		}
	case "job_end":
		j.End = r.Time
		if st, err := workload.ParseState(r.Field("state")); err == nil {
			j.State = st
		}
		if v, err := strconv.Atoi(r.Field("exit_code")); err == nil {
			j.ExitCode = v
		}
		if len(j.Nodes) == 0 {
			if nodes, err := workload.ParseNodesString(r.Field("nodes")); err == nil {
				j.Nodes = nodes
			}
		}
		if j.App == "" {
			j.App = r.Field("app")
		}
	}
}

// Job returns the current fold of one job, complete or not — zero
// Start/End mark missing records — or nil for an id never seen. The
// incremental engine uses it to re-fold a single job without
// materialising the whole table. The job is the builder's own: it
// changes under later Adds.
func (b *JobTableBuilder) Job(id int64) *workload.Job {
	return b.byID[id]
}

// Jobs returns the completed jobs in first-seen order. Jobs missing a
// start or end record are dropped (still running at window end). The
// entries are the builder's own folds, not copies: stop adding records
// once the table is taken.
func (b *JobTableBuilder) Jobs() []*workload.Job {
	var out []*workload.Job
	for _, id := range b.order {
		j := b.byID[id]
		if !j.Start.IsZero() && !j.End.IsZero() {
			out = append(out, j)
		}
	}
	return out
}

// JobsFromRecords reconstructs the job table from parsed scheduler
// records — the pipeline's substitute for scheduler accounting access.
// Jobs missing an end record are dropped (still running at window end).
func JobsFromRecords(recs []events.Record) []*workload.Job {
	b := NewJobTableBuilder()
	for i := range recs {
		b.Add(&recs[i])
	}
	return b.Jobs()
}
