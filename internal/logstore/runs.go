package logstore

import (
	"cmp"

	"hpcfail/internal/cname"
	"hpcfail/internal/events"
)

// runHead is the next record of one ascending run of mergeRuns' input:
// position pos of src, the run ending before end. t caches the record's
// time as SortByTime's sort key.
type runHead struct {
	t        int64
	pos, end int
}

// headLess orders run heads the way events.SortByTime orders records —
// time, stream, component — and then by input position, which between
// two heads is run order: equal records leave in input order, exactly
// as a stable sort places them.
func headLess(src []events.Record, a, b runHead) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if c := recordCmp(&src[a.pos], &src[b.pos]); c != 0 {
		return c < 0
	}
	return a.pos < b.pos
}

// recordCmp breaks a time tie between two records: stream, then
// component.
func recordCmp(a, b *events.Record) int {
	if a.Stream != b.Stream {
		return cmp.Compare(a.Stream, b.Stream)
	}
	return cname.Compare(a.Component, b.Component)
}

// outOfOrder reports whether src[i] sorts strictly before src[i-1] — the
// cut between two ascending runs.
func outOfOrder(src []events.Record, i int) bool {
	a, b := src[i].Time.UnixNano(), src[i-1].Time.UnixNano()
	if a != b {
		return a < b
	}
	return recordCmp(&src[i], &src[i-1]) < 0
}

// mergeRuns writes src into dst (len(dst) == len(src)) in
// events.SortByTime order. It counts src's maximal ascending runs, then
// merges them through a min-heap of run heads: one allocation, sized to
// the run count, and each record copied once. Sorted input is one run
// and a plain copy.
func mergeRuns(dst, src []events.Record) {
	runs := 1
	for i := 1; i < len(src); i++ {
		if outOfOrder(src, i) {
			runs++
		}
	}
	if runs == 1 {
		copy(dst, src)
		return
	}
	h := make([]runHead, 0, runs)
	from := 0
	for i := 1; i <= len(src); i++ {
		if i == len(src) || outOfOrder(src, i) {
			h = append(h, runHead{src[from].Time.UnixNano(), from, i})
			from = i
		}
	}
	// Heapify the heads, then pop the least one record at a time.
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(src, h, i)
	}
	for out := 0; len(h) > 0; out++ {
		top := &h[0]
		dst[out] = src[top.pos]
		top.pos++
		if top.pos == top.end {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		} else {
			top.t = src[top.pos].Time.UnixNano()
		}
		siftDown(src, h, 0)
	}
}

// siftDown restores the heap property below h[i].
func siftDown(src []events.Record, h []runHead, i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && headLess(src, h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && headLess(src, h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
