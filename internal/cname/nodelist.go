package cname

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Node-list compression. Schedulers never log thousand-node allocations
// as comma lists; they compress consecutive indices into bracketed
// ranges ("nid[00001-00012]" in Slurm). This file implements the
// analogous compression over cnames, grouping nodes by blade:
//
//	c0-0c0s0n[0-3],c0-0c0s1n[0,2],c0-0c1s4n2
//
// Compression is exact: Expand(Compress(nodes)) returns the same set.

// CompressNodeList renders a set of node-level names compactly. The
// input is deduplicated and sorted; non-node names are ignored.
//
// This sits on the scheduler-log render hot path (every simulated job
// logs its allocation twice), so it works off one sorted slice and one
// output buffer instead of a per-blade map and fmt calls. Scheduler
// allocations arrive already sorted, in which case no sorting happens
// at all.
func CompressNodeList(nodes []Name) string {
	// Scheduler allocations arrive as already-sorted node-level slices;
	// detect that in one scan and render straight off the input with no
	// intermediate copy.
	clean := true
	for i, n := range nodes {
		if n.Level() != LevelNode || (i > 0 && Compare(nodes[i-1], n) > 0) {
			clean = false
			break
		}
	}
	sorted := nodes
	if !clean {
		sorted = make([]Name, 0, len(nodes))
		for _, n := range nodes {
			if n.Level() == LevelNode {
				sorted = append(sorted, n)
			}
		}
		inOrder := true
		for i := 1; i < len(sorted); i++ {
			if Compare(sorted[i-1], sorted[i]) > 0 {
				inOrder = false
				break
			}
		}
		if !inOrder {
			sort.Slice(sorted, func(i, j int) bool { return Compare(sorted[i], sorted[j]) < 0 })
		}
	}
	if len(sorted) == 0 {
		return ""
	}
	// Sorted physical order puts each blade's nodes in one contiguous
	// run with ascending (possibly duplicated) node indices.
	buf := make([]byte, 0, len(sorted)*12)
	var idx []int
	for i := 0; i < len(sorted); {
		blade := sorted[i].BladeName()
		j := i
		idx = idx[:0]
		for ; j < len(sorted) && sorted[j].BladeName() == blade; j++ {
			if v := sorted[j].NodeIndex(); len(idx) == 0 || idx[len(idx)-1] != v {
				idx = append(idx, v)
			}
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendName(buf, blade)
		buf = append(buf, 'n')
		if len(idx) == 1 {
			buf = strconv.AppendInt(buf, int64(idx[0]), 10)
		} else {
			buf = append(buf, '[')
			buf = appendIntRanges(buf, idx)
			buf = append(buf, ']')
		}
		i = j
	}
	return string(buf)
}

// appendIntRanges renders sorted distinct ints as "0-2,5" into buf.
func appendIntRanges(buf []byte, idx []int) []byte {
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && idx[j+1] == idx[j]+1 {
			j++
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(idx[i]), 10)
		if j > i {
			buf = append(buf, '-')
			buf = strconv.AppendInt(buf, int64(idx[j]), 10)
		}
		i = j + 1
	}
	return buf
}

// ExpandNodeList inverts CompressNodeList. It also accepts plain
// comma-separated cnames (the uncompressed legacy form).
//
// This is the parsing counterpart of the scheduler-log hot path (every
// job_start/job_end/placement record carries a node list), so parts and
// index tokens are walked by position rather than materialised with
// strings.Split.
func ExpandNodeList(s string) ([]Name, error) {
	if s == "" {
		return nil, nil
	}
	out := make([]Name, 0, strings.Count(s, ",")+2)
	for start := 0; start <= len(s); {
		end := topLevelComma(s, start)
		part := s[start:end]
		start = end + 1
		if part == "" {
			continue
		}
		br := strings.IndexByte(part, '[')
		if br < 0 {
			n, err := Parse(part)
			if err != nil {
				return nil, err
			}
			out = append(out, n)
			continue
		}
		if !strings.HasSuffix(part, "]") || br == 0 || part[br-1] != 'n' {
			return nil, fmt.Errorf("cname: bad node list part %q", part)
		}
		blade, err := Parse(part[:br-1])
		if err != nil {
			return nil, err
		}
		if blade.Level() != LevelBlade {
			return nil, fmt.Errorf("cname: node list prefix %q is not a blade", part[:br-1])
		}
		// The bracket body is "0-2,5"-style ranges; expand in place.
		body := part[br+1 : len(part)-1]
		for ti := 0; ti <= len(body); {
			var tok string
			if te := strings.IndexByte(body[ti:], ','); te < 0 {
				tok = body[ti:]
				ti = len(body) + 1
			} else {
				tok = body[ti : ti+te]
				ti += te + 1
			}
			if dash := strings.IndexByte(tok, '-'); dash > 0 {
				lo, err1 := strconv.Atoi(tok[:dash])
				hi, err2 := strconv.Atoi(tok[dash+1:])
				if err1 != nil || err2 != nil || hi < lo {
					return nil, fmt.Errorf("cname: bad range %q in %q", tok, part)
				}
				for v := lo; v <= hi; v++ {
					if v < 0 || v >= NodesPerBlade {
						return nil, fmt.Errorf("cname: node index %d out of range in %q", v, part)
					}
					out = append(out, blade.onBlade(v))
				}
				continue
			}
			v, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("cname: bad index %q in %q", tok, part)
			}
			if v < 0 || v >= NodesPerBlade {
				return nil, fmt.Errorf("cname: node index %d out of range in %q", v, part)
			}
			out = append(out, blade.onBlade(v))
		}
	}
	return out, nil
}

// topLevelComma returns the index of the first comma outside brackets
// at or after start, or len(s).
func topLevelComma(s string, start int) int {
	depth := 0
	for i := start; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				return i
			}
		}
	}
	return len(s)
}
