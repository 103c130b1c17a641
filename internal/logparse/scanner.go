// Line-level helpers: a zero-allocation line scanner and string
// interning for the tokens that repeat across millions of lines.
package logparse

import (
	"strings"

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
