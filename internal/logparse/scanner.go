// Line-level helpers: a zero-allocation line scanner, string interning
// for the tokens that repeat across millions of lines, and chunk
// splitting with trace-safe boundaries whose chunk-by-chunk parse is
// byte-identical to the whole-file parse.
package logparse

import (
	"strings"

	"hpcfail/internal/events"
	"hpcfail/internal/stacktrace"
	"hpcfail/internal/topology"
	"hpcfail/internal/workload"
)

// LineScanner iterates the lines of an in-memory log file without
// allocating: each Next returns a substring of the input sharing its
// backing array. Trailing newlines are ignored, matching the
// TrimRight+Split convention of the sequential loader.
type LineScanner struct {
	s   string
	off int
}

// NewLineScanner returns a scanner over data with trailing newlines
// stripped.
func NewLineScanner(data string) *LineScanner {
	return &LineScanner{s: strings.TrimRight(data, "\n")}
}

// Next returns the next line (without its newline) and whether one was
// available. Empty lines between newlines are returned as "".
func (sc *LineScanner) Next() (string, bool) {
	if sc.off > len(sc.s) {
		return "", false
	}
	rest := sc.s[sc.off:]
	if i := strings.IndexByte(rest, '\n'); i >= 0 {
		sc.off += i + 1
		return rest[:i], true
	}
	sc.off = len(sc.s) + 1
	return rest, true
}

// CountLines returns the number of lines Next will yield, without
// consuming the scanner.
func (sc *LineScanner) CountLines() int {
	if sc.s == "" {
		return 0
	}
	return strings.Count(sc.s, "\n") + 1
}

// SplitLines splits raw file data into lines exactly the way the
// sequential loader does (strip trailing newlines, split on '\n'), but
// through the scanner: one slice allocation, no per-line copies.
func SplitLines(data string) []string {
	sc := NewLineScanner(data)
	n := sc.CountLines()
	if n == 0 {
		return []string{""}
	}
	out := make([]string, 0, n)
	for {
		line, ok := sc.Next()
		if !ok {
			break
		}
		out = append(out, line)
	}
	return out
}

// canon interns the tokens that repeat across a corpus: category tags,
// severity labels, structured field keys and scheduler state values.
// The map is built once at init and never written again, so concurrent
// parse workers read it lock-free. Interning matters on the streaming
// path: a parsed record that holds the canonical constant instead of a
// substring of its source line does not pin the whole file buffer.
var canon map[string]string

func init() {
	canon = make(map[string]string, 128)
	add := func(ss ...string) {
		for _, s := range ss {
			canon[s] = s
		}
	}
	for _, p := range categoryPatterns {
		add(p.cat)
	}
	// Tagged-stream categories seen in controller/ERD logs and the
	// scheduler actions (loggen's vocabularies).
	add("unclassified", "ec_node_failed", "ec_node_unavailable", "ec_heartbeat_stop",
		"ec_hw_error", "ec_link_error", "nvf", "l0_sysd_mce", "sedc_warning",
		"sedc_reading", "power_fault", "fan_fault", "voltage_fault",
		"job_start", "job_end", "job_epilogue", "placement", "release",
		"node_state", "unknown")
	// Severity labels and common structured field keys/values.
	add("INFO", "WARNING", "ERROR", "CRITICAL")
	add("app", "user", "state", "exit_code", "req_mem_mb", "nodes", "apid",
		"status", "intent", "scheduled", "sensor", "reading", "threshold",
		"trace", "modules")
	for _, st := range []workload.State{workload.StateCompleted, workload.StateFailed,
		workload.StateNodeFail, workload.StateCancelled, workload.StateTimeout,
		workload.StateOOM} {
		add(st.String())
	}
	add("0", "1")
}

// intern returns the canonical instance of s when one exists, else s
// itself. Zero allocation either way.
func intern(s string) string {
	if c, ok := canon[s]; ok {
		return c
	}
	return s
}

// Chunk is a contiguous run of lines from one stream file, placed so
// that parsing it in isolation yields exactly the records and errors the
// sequential parse would produce for those lines.
type Chunk struct {
	// Lines is a subslice of the file's lines (shared backing).
	Lines []string
	// Start is the index of Lines[0] in the whole file, used to offset
	// ParseError line numbers back to file coordinates.
	Start int
}

// safeBoundary reports whether a chunk may begin at line: the line must
// parse as a clean record line that is neither a "Call Trace:" header
// nor a trace frame continuation. Splitting anywhere else could detach a
// multi-line call trace from its owning record (or re-parse frames as
// records), diverging from the sequential result. Malformed and blank
// lines are rejected too: they do not reset the sequential parser's
// pending-trace state, so a chunk must not begin on one.
func safeBoundary(line string) bool {
	if strings.TrimSpace(line) == "" {
		return false
	}
	_, _, _, rest, err := splitPrefix(line)
	if err != nil {
		return false
	}
	trimmed := strings.TrimSpace(rest)
	if strings.HasPrefix(trimmed, "Call Trace:") {
		return false
	}
	if _, isFrame := stacktrace.ParseFrame(trimmed); isFrame {
		return false
	}
	return true
}

// SafeChunks splits lines into chunks of roughly chunkSize lines whose
// boundaries are safe for independent parsing. For the internal streams
// (console/messages/consumer) boundaries are advanced past call-trace
// runs; all other stream formats are line-independent, so every boundary
// is safe. chunkSize <= 0 selects 4096.
func SafeChunks(stream events.Stream, lines []string, chunkSize int) []Chunk {
	if chunkSize <= 0 {
		chunkSize = 4096
	}
	if len(lines) == 0 {
		return nil
	}
	traceAware := stream.Internal()
	var out []Chunk
	start := 0
	for start < len(lines) {
		end := start + chunkSize
		if end >= len(lines) {
			out = append(out, Chunk{Lines: lines[start:], Start: start})
			break
		}
		if traceAware {
			for end < len(lines) && !safeBoundary(lines[end]) {
				end++
			}
		}
		out = append(out, Chunk{Lines: lines[start:end], Start: start})
		start = end
	}
	return out
}

// ParseChunk parses one chunk. Records are identical to the sequential
// parse of the same lines; ParseError line numbers are rebased to file
// coordinates so the assembled error list matches ParseLines on the
// whole file.
func ParseChunk(stream events.Stream, sched topology.SchedulerType, c Chunk) ([]events.Record, []error) {
	recs, errs := ParseLines(stream, sched, c.Lines)
	if c.Start != 0 {
		for _, e := range errs {
			if pe, ok := e.(*ParseError); ok {
				pe.Line += c.Start
			}
		}
	}
	return recs, errs
}
