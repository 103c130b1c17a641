package logstore

import (
	"container/heap"
	"runtime"
	"sort"
	"sync"
	"time"

	"hpcfail/internal/cname"
	"hpcfail/internal/events"
)

// ShardedStore partitions a corpus into node-hash shards so ingestion
// can append from a streaming parser and diagnosis can query per-shard
// indexes without any global lock. The shard key is the record's cabinet
// (the hash of its component's cabinet coordinates): the pipeline's
// containment joins — node, blade and cabinet windows — then always
// resolve inside a single shard. Records with no valid component
// (job-global scheduler lines, ALPS placements) share one designated
// shard so per-key state stays co-located.
//
// Life cycle: Append during ingestion (mutating, serialised), then Seal
// exactly once; after Seal every read is lock-free. Seal sorts and
// indexes each shard in parallel and kicks off the merged global view
// in the background, so shard-local reads (and diagnosis over them) can
// begin before the merged index finishes building.
//
// Sequential-equivalence invariant: Append assigns each record a global
// arrival sequence number. Within a shard, records are stable-sorted by
// time (equal times keep arrival order), and the merged view is the
// (time, seq)-lexicographic merge of all shards — exactly the stable
// time sort of the arrival sequence, i.e. byte-identical to
// logstore.New over the same records in the same order.
type ShardedStore struct {
	mu     sync.Mutex
	seq    int64
	sealed bool

	shards []*shardSlot

	// sched and alps collect the scheduler and placement streams in
	// arrival order; Seal time-sorts them so job-table and apid
	// reconstruction see the same sequence the merged store would give.
	sched     []events.Record
	alps      []events.Record
	schedSeqs []int64
	alpsSeqs  []int64

	merged     *Store
	mergedDone chan struct{}
}

type shardSlot struct {
	recs  []events.Record
	seqs  []int64
	store *Store
}

// DefaultShards is the shard count used when an option or constructor
// is given zero.
const DefaultShards = 8

// NewSharded returns an empty sharded store with the given shard count
// (<= 0 selects DefaultShards).
func NewSharded(shards int) *ShardedStore {
	if shards <= 0 {
		shards = DefaultShards
	}
	ss := &ShardedStore{
		shards:     make([]*shardSlot, shards),
		mergedDone: make(chan struct{}),
	}
	for i := range ss.shards {
		ss.shards[i] = &shardSlot{}
	}
	return ss
}

// NewShardedFromRecords shards and seals an in-memory record batch —
// the sharded counterpart of New. The input is not mutated.
func NewShardedFromRecords(recs []events.Record, shards int) *ShardedStore {
	ss := NewSharded(shards)
	ss.Append(recs)
	ss.Seal()
	return ss
}

// shardIndex routes a component to its shard: cabinet-coordinate hash
// for valid names, the zero-cabinet shard for invalid ones.
func (ss *ShardedStore) shardIndex(n cname.Name) int {
	if len(ss.shards) == 1 {
		return 0
	}
	var col, row int
	if n.IsValid() {
		cab := n.CabinetName()
		col, row = cab.Col(), cab.Row()
	}
	// Fibonacci-style mixing keeps neighbouring cabinets off the same
	// shard without a modulo bias worth caring about at these counts.
	h := uint64(col)*0x9E3779B97F4A7C15 + uint64(row)*0xBF58476D1CE4E5B9
	h ^= h >> 29
	return int(h % uint64(len(ss.shards)))
}

// Append routes records to their shards, assigning global sequence
// numbers in call order. For sequential equivalence, append records in
// the order the sequential loader reads them (streams in
// loggen.AllStreams order, lines in file order); the streaming loader's
// collector does exactly that. Append must not be called after Seal.
func (ss *ShardedStore) Append(recs []events.Record) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.sealed {
		panic("logstore: Append after Seal")
	}
	for i := range recs {
		r := recs[i]
		seq := ss.seq
		ss.seq++
		sh := ss.shards[ss.shardIndex(r.Component)]
		sh.recs = append(sh.recs, r)
		sh.seqs = append(sh.seqs, seq)
		switch r.Stream {
		case events.StreamScheduler:
			ss.sched = append(ss.sched, r)
			ss.schedSeqs = append(ss.schedSeqs, seq)
		case events.StreamALPS:
			ss.alps = append(ss.alps, r)
			ss.alpsSeqs = append(ss.alpsSeqs, seq)
		}
	}
}

// shardSorter stable-sorts a shard's records by time, carrying the
// sequence numbers along. Arrival order is seq-ascending, so the stable
// sort leaves equal-time runs in (time, seq) lexicographic order.
type shardSorter struct{ sh *shardSlot }

func (s shardSorter) Len() int { return len(s.sh.recs) }
func (s shardSorter) Less(i, j int) bool {
	return s.sh.recs[i].Time.Before(s.sh.recs[j].Time)
}
func (s shardSorter) Swap(i, j int) {
	s.sh.recs[i], s.sh.recs[j] = s.sh.recs[j], s.sh.recs[i]
	s.sh.seqs[i], s.sh.seqs[j] = s.sh.seqs[j], s.sh.seqs[i]
}

type recSorter struct {
	recs []events.Record
	seqs []int64
}

func (s recSorter) Len() int           { return len(s.recs) }
func (s recSorter) Less(i, j int) bool { return s.recs[i].Time.Before(s.recs[j].Time) }
func (s recSorter) Swap(i, j int) {
	s.recs[i], s.recs[j] = s.recs[j], s.recs[i]
	s.seqs[i], s.seqs[j] = s.seqs[j], s.seqs[i]
}

// Seal freezes the store: every shard is stable-sorted and indexed (in
// parallel), the scheduler/ALPS side-channels are time-sorted, and the
// merged global view starts building in the background. After Seal
// returns, all shard-local reads are lock-free; Merged/All block until
// the background merge completes.
func (ss *ShardedStore) Seal() {
	ss.mu.Lock()
	if ss.sealed {
		ss.mu.Unlock()
		return
	}
	ss.sealed = true
	ss.mu.Unlock()

	par := runtime.GOMAXPROCS(0)
	if par > len(ss.shards) {
		par = len(ss.shards)
	}
	var wg sync.WaitGroup
	work := make(chan *shardSlot)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range work {
				sort.Stable(shardSorter{sh})
				sh.store = newFromSorted(sh.recs)
			}
		}()
	}
	for _, sh := range ss.shards {
		work <- sh
	}
	close(work)
	wg.Wait()

	sort.Stable(recSorter{ss.sched, ss.schedSeqs})
	sort.Stable(recSorter{ss.alps, ss.alpsSeqs})

	go func() {
		ss.merged = newFromSorted(ss.mergeAll())
		close(ss.mergedDone)
	}()
}

// mergeHead is one shard's cursor in the k-way merge.
type mergeHead struct {
	shard *shardSlot
	pos   int
}

type mergeHeap []mergeHead

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	ta, tb := a.shard.recs[a.pos].Time, b.shard.recs[b.pos].Time
	if ta.Equal(tb) {
		return a.shard.seqs[a.pos] < b.shard.seqs[b.pos]
	}
	return ta.Before(tb)
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeHead)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergeAll produces the merged record slice in (time, seq) order.
func (ss *ShardedStore) mergeAll() []events.Record {
	total := 0
	for _, sh := range ss.shards {
		total += len(sh.recs)
	}
	out := make([]events.Record, 0, total)
	var h mergeHeap
	for _, sh := range ss.shards {
		if len(sh.recs) > 0 {
			h = append(h, mergeHead{shard: sh})
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		head := h[0]
		out = append(out, head.shard.recs[head.pos])
		if head.pos+1 < len(head.shard.recs) {
			h[0].pos++
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}

// NumShards returns the shard count.
func (ss *ShardedStore) NumShards() int { return len(ss.shards) }

// ShardLens returns the per-shard record counts. Safe to call during
// ingestion (the checkpoint journaller snapshots them for its marks).
func (ss *ShardedStore) ShardLens() []int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	out := make([]int, len(ss.shards))
	for i, sh := range ss.shards {
		out[i] = len(sh.recs)
	}
	return out
}

// Shard returns shard i's indexed store. Valid only after Seal.
func (ss *ShardedStore) Shard(i int) *Store { return ss.shards[i].store }

// ShardSeq returns shard i's global arrival sequence numbers, aligned
// with Shard(i).All(). (Time, seq) lexicographic order across shards is
// exactly the merged store's record order — the hook the parallel
// detector uses to merge per-shard detections into the sequential
// order.
func (ss *ShardedStore) ShardSeq(i int) []int64 { return ss.shards[i].seqs }

// ShardForNode returns the shard store holding every record of the
// node's cabinet. Valid only after Seal.
func (ss *ShardedStore) ShardForNode(n cname.Name) *Store {
	return ss.shards[ss.shardIndex(n)].store
}

// Len returns the total record count across shards.
func (ss *ShardedStore) Len() int {
	n := 0
	for _, sh := range ss.shards {
		n += len(sh.recs)
	}
	return n
}

// NodeWindow answers the node's containment window from its shard —
// lock-free, no merged view needed.
func (ss *ShardedStore) NodeWindow(node cname.Name, from, to time.Time) Span {
	return ss.ShardForNode(node).NodeWindow(node, from, to)
}

// BladeWindow answers the blade window from the blade's cabinet shard.
func (ss *ShardedStore) BladeWindow(blade cname.Name, from, to time.Time) Span {
	return ss.ShardForNode(blade).BladeWindow(blade, from, to)
}

// CabinetWindow answers the cabinet window from the cabinet's shard.
func (ss *ShardedStore) CabinetWindow(cab cname.Name, from, to time.Time) Span {
	return ss.ShardForNode(cab).CabinetWindow(cab, from, to)
}

// SchedulerRecords returns every scheduler-stream record in merged
// order, without waiting for the merged view.
func (ss *ShardedStore) SchedulerRecords() []events.Record { return ss.sched }

// ALPSRecords returns every ALPS-stream record in merged order, without
// waiting for the merged view.
func (ss *ShardedStore) ALPSRecords() []events.Record { return ss.alps }

// Merged blocks until the background merge finishes and returns the
// global store — identical to logstore.New over the appended records.
func (ss *ShardedStore) Merged() *Store {
	<-ss.mergedDone
	return ss.merged
}

// All returns the merged, time-sorted records (blocking like Merged).
func (ss *ShardedStore) All() []events.Record { return ss.Merged().All() }
