package logstore

import (
	"slices"

	"hpcfail/internal/cname"
	"hpcfail/internal/events"
)

// Live is the single-writer incremental counterpart of Store: it
// maintains the canonical record order and every secondary-index family
// across record batches, in cost proportional to the batch (plus the
// touched index keys), and stamps out immutable *Store snapshots on
// demand.
//
// The equivalence contract, which the differential harness in the repo
// root enforces byte-for-byte: after Apply(b1) … Apply(bk), Snapshot()
// answers every query identically to New(concat(b1 … bk)). That holds
// because Apply merges each (canonically pre-sorted) batch into the
// existing order with old-record-wins tie breaking — exactly the stable
// order events.SortByTime imposes on the concatenated arrival sequence,
// where earlier arrivals carry smaller indices.
//
// Snapshot safety: previously returned snapshots stay valid while the
// Live keeps mutating. In-order appends reuse the tail capacity of the
// live slices — invisible to snapshots because every span a Store hands
// out is capacity-capped at its length — and out-of-order arrivals
// rebuild the affected key's slice copy-on-write, leaving the old array
// to the old snapshots. The index maps are sharded by key hash and
// shared with the snapshots shard by shard: Snapshot copies the shard
// tables (spanShards pointers per family) and the next Apply clones only
// the shards it writes to, so neither grows with the number of keys.
//
// Live itself is not safe for concurrent use; the owner serialises
// Apply/Snapshot (the server holds its engine mutex across both).
type Live struct {
	recs []events.Record

	byNode     liveIndex[cname.Name]
	byBlade    liveIndex[cname.Name]
	byCabinet  liveIndex[cname.Name]
	byCategory liveIndex[string]
	byJob      liveIndex[int64]
}

// liveIndex is a spanIndex under single-writer mutation. A shard is
// owned once it was created or cloned after the last snapshot; only
// owned shards are written in place.
type liveIndex[K comparable] struct {
	spanIndex[K]
	owned []bool
}

func newLiveIndex[K comparable](hash func(K) uint32) liveIndex[K] {
	return liveIndex[K]{spanIndex: newSpanIndex(hash), owned: make([]bool, spanShards)}
}

// adoptIndex starts a live index from a finished one without sharing
// anything writable: every shard is cloned and every span capped, so
// the first append to an adopted span moves it to a fresh array.
func adoptIndex[K comparable](from spanIndex[K], hash func(K) uint32) liveIndex[K] {
	x := newLiveIndex(hash)
	for i, m := range from.shards {
		if len(m) == 0 {
			continue
		}
		c := make(map[K][]events.Record, len(m))
		for k, v := range m {
			c[k] = v[:len(v):len(v)]
		}
		x.shards[i], x.owned[i] = c, true
	}
	return x
}

// merge folds a canonically sorted addition into the key's span,
// cloning the key's shard first if a snapshot shares it.
func (x *liveIndex[K]) merge(k K, add []events.Record) {
	i := x.hash(k) % spanShards
	m := x.shards[i]
	if !x.owned[i] {
		c := make(map[K][]events.Record, len(m)+1)
		for k, v := range m {
			c[k] = v
		}
		m, x.shards[i], x.owned[i] = c, c, true
	}
	m[k] = mergeSpan(m[k], add)
}

// snapshot hands out the index as it stands; every shard is shared
// from here on.
func (x *liveIndex[K]) snapshot() spanIndex[K] {
	clear(x.owned)
	return spanIndex[K]{hash: x.hash, shards: slices.Clone(x.shards)}
}

// NewLive returns an empty live store.
func NewLive() *Live {
	return &Live{
		// Non-nil from the start so an empty snapshot's All() equals an
		// empty New()'s (reflect.DeepEqual distinguishes nil).
		recs:       []events.Record{},
		byNode:     newLiveIndex(hashName),
		byBlade:    newLiveIndex(hashName),
		byCabinet:  newLiveIndex(hashName),
		byCategory: newLiveIndex(hashString),
		byJob:      newLiveIndex(hashInt64),
	}
}

// LiveFrom returns a live store that continues from a batch-built one:
// Apply on it behaves as if every record of s had been applied first,
// without indexing them a second time. s is not consumed — it stays
// immutable and in use by its other holders: the index maps are cloned
// and every span is capacity-capped, so the first append to any adopted
// span moves it to a fresh array instead of writing into s's slab.
func LiveFrom(s *Store) *Live {
	return &Live{
		recs:       s.recs[:len(s.recs):len(s.recs)],
		byNode:     adoptIndex(s.byNode, hashName),
		byBlade:    adoptIndex(s.byBlade, hashName),
		byCabinet:  adoptIndex(s.byCabinet, hashName),
		byCategory: adoptIndex(s.byCategory, hashString),
		byJob:      adoptIndex(s.byJob, hashInt64),
	}
}

// recBefore is the canonical (time, stream, component) order — the
// ByTime comparator. Records comparing equal under it are ordered by
// arrival, which merge sites encode as old-before-new.
func recBefore(a, b *events.Record) bool {
	at, bt := a.Time.UnixNano(), b.Time.UnixNano()
	if at != bt {
		return at < bt
	}
	if a.Stream != b.Stream {
		return a.Stream < b.Stream
	}
	return cname.Compare(a.Component, b.Component) < 0
}

// mergeSpan merges a canonically-sorted addition into a canonically-
// sorted span, old records winning ties. When the addition belongs
// entirely after the existing records the span grows in place (tail
// capacity is invisible to capped snapshot views); otherwise the merge
// builds a fresh array so snapshots holding the old one stay intact.
func mergeSpan(old, add []events.Record) []events.Record {
	if len(add) == 0 {
		return old
	}
	if len(old) == 0 {
		cp := make([]events.Record, len(add))
		copy(cp, add)
		return cp
	}
	if !recBefore(&add[0], &old[len(old)-1]) {
		return append(old, add...)
	}
	out := make([]events.Record, 0, len(old)+len(add))
	i, j := 0, 0
	for i < len(old) && j < len(add) {
		if recBefore(&add[j], &old[i]) {
			out = append(out, add[j])
			j++
		} else {
			out = append(out, old[i])
			i++
		}
	}
	out = append(out, old[i:]...)
	return append(out, add[j:]...)
}

// Apply merges one batch into the live corpus. The batch must already
// be in canonical order (events.SortByTime) and represents records that
// arrived after everything applied before it; Apply does not retain the
// slice.
func (l *Live) Apply(batch []events.Record) {
	if len(batch) == 0 {
		return
	}
	l.recs = mergeSpan(l.recs, batch)

	// Group the batch per key (preserving batch order, which is the
	// canonical order restricted to the key) and merge family by family.
	nodeAdds := map[cname.Name][]events.Record{}
	bladeAdds := map[cname.Name][]events.Record{}
	cabAdds := map[cname.Name][]events.Record{}
	catAdds := map[string][]events.Record{}
	jobAdds := map[int64][]events.Record{}
	for i := range batch {
		r := &batch[i]
		if c := r.Component; c.IsValid() {
			if c.Level() == cname.LevelNode {
				nodeAdds[c] = append(nodeAdds[c], *r)
			}
			if b := c.BladeName(); b.IsValid() {
				bladeAdds[b] = append(bladeAdds[b], *r)
			}
			cabAdds[c.CabinetName()] = append(cabAdds[c.CabinetName()], *r)
		}
		catAdds[r.Category] = append(catAdds[r.Category], *r)
		if r.JobID != 0 {
			jobAdds[r.JobID] = append(jobAdds[r.JobID], *r)
		}
	}
	for k, add := range nodeAdds {
		l.byNode.merge(k, add)
	}
	for k, add := range bladeAdds {
		l.byBlade.merge(k, add)
	}
	for k, add := range cabAdds {
		l.byCabinet.merge(k, add)
	}
	for k, add := range catAdds {
		l.byCategory.merge(k, add)
	}
	for k, add := range jobAdds {
		l.byJob.merge(k, add)
	}
}

// Len returns the live record count.
func (l *Live) Len() int { return len(l.recs) }

// Snapshot returns an immutable Store over the corpus applied so far.
// Queries against it are indistinguishable from New over the same
// arrival sequence; it stays valid across later Apply calls.
func (l *Live) Snapshot() *Store {
	return &Store{
		recs:       l.recs[:len(l.recs):len(l.recs)],
		byNode:     l.byNode.snapshot(),
		byBlade:    l.byBlade.snapshot(),
		byCabinet:  l.byCabinet.snapshot(),
		byCategory: l.byCategory.snapshot(),
		byJob:      l.byJob.snapshot(),
	}
}
