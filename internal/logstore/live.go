package logstore

import (
	"slices"
	"sort"

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
// Live keeps mutating. A snapshot holds its own header of the record log
// and of every position list, and a Span resolves positions against the
// log of the snapshot that answered. An in-order batch appends to the
// log and to its keys' lists, writing only beyond every snapshot's
// length (a position keeps its meaning when the log's array is
// reallocated). An out-of-order batch moves records, so the log and
// every list holding a moved position are rebuilt into fresh arrays,
// leaving the old ones to the old snapshots. The index maps are sharded
// by key hash and shared with the snapshots shard by shard: Snapshot
// copies the shard tables (indexShards pointers per family) and the next
// Apply clones only the shards it writes to, so neither grows with the
// number of keys.
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

// liveIndex is a posIndex under single-writer mutation. A shard is
// owned once it was created or cloned after the last snapshot; only
// owned shards are written in place.
type liveIndex[K comparable] struct {
	posIndex[K]
	owned []bool
}

func newLiveIndex[K comparable](hash func(K) uint32) liveIndex[K] {
	return liveIndex[K]{posIndex: newPosIndex(hash), owned: make([]bool, indexShards)}
}

// adoptIndex starts a live index from a finished one without sharing
// anything writable: every shard is cloned and every list capped, so
// the first append to an adopted list moves it to a fresh array.
func adoptIndex[K comparable](from posIndex[K], hash func(K) uint32) liveIndex[K] {
	x := newLiveIndex(hash)
	for i, m := range from.shards {
		if len(m) == 0 {
			continue
		}
		c := make(map[K][]uint32, len(m))
		for k, v := range m {
			c[k] = v[:len(v):len(v)]
		}
		x.shards[i], x.owned[i] = c, true
	}
	return x
}

// reindex brings the family up to date with a log whose records at
// positions from and beyond are new or have moved: every key of such a
// record keeps its positions before from and gains, in order, the
// positions its records now have.
func (x *liveIndex[K]) reindex(recs []events.Record, from int, key func(*events.Record) (K, bool)) {
	adds := map[K][]uint32{}
	for i := from; i < len(recs); i++ {
		if k, ok := key(&recs[i]); ok {
			adds[k] = append(adds[k], uint32(i))
		}
	}
	for k, add := range adds {
		i := x.hash(k) % indexShards
		m := x.shards[i]
		if !x.owned[i] {
			c := make(map[K][]uint32, len(m)+1)
			for k, v := range m {
				c[k] = v
			}
			m, x.shards[i], x.owned[i] = c, c, true
		}
		old := m[k]
		if keep, _ := slices.BinarySearch(old, uint32(from)); keep < len(old) {
			// The key had records that moved: snapshots hold the old array.
			old = slices.Clip(old[:keep])
		}
		m[k] = append(old, add...)
	}
}

// snapshot hands out the index as it stands; every shard is shared
// from here on.
func (x *liveIndex[K]) snapshot() posIndex[K] {
	clear(x.owned)
	return posIndex[K]{hash: x.hash, shards: slices.Clone(x.shards)}
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
// and the log and every position list are capacity-capped, so the first
// append to any of them moves it to a fresh array instead of writing
// into s's.
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

// mergeLog merges a canonically sorted batch into the canonically sorted
// log, old records winning ties, and reports the first position whose
// record is new or has moved. A batch that belongs entirely after the
// log grows it in place (tail capacity is invisible to snapshots, whose
// headers end at their length); otherwise the merge builds a fresh array
// so snapshots holding the old one stay intact.
func mergeLog(old, add []events.Record) (merged []events.Record, from int) {
	if len(old) == 0 || !recBefore(&add[0], &old[len(old)-1]) {
		return append(old, add...), len(old)
	}
	from = sort.Search(len(old), func(i int) bool { return recBefore(&add[0], &old[i]) })
	out := make([]events.Record, from, len(old)+len(add))
	copy(out, old[:from])
	i, j := from, 0
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
	return append(out, add[j:]...), from
}

// Apply merges one batch into the live corpus. The batch must already
// be in canonical order (events.SortByTime) and represents records that
// arrived after everything applied before it; Apply does not retain the
// slice.
func (l *Live) Apply(batch []events.Record) {
	if len(batch) == 0 {
		return
	}
	checkPositions(len(l.recs) + len(batch))
	var from int
	l.recs, from = mergeLog(l.recs, batch)
	l.byNode.reindex(l.recs, from, nodeKey)
	l.byBlade.reindex(l.recs, from, bladeKey)
	l.byCabinet.reindex(l.recs, from, cabinetKey)
	l.byCategory.reindex(l.recs, from, categoryKey)
	l.byJob.reindex(l.recs, from, jobKey)
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
