package core

import (
	"sort"
	"time"

	"hpcfail/internal/alps"
	"hpcfail/internal/cname"
	"hpcfail/internal/events"
	"hpcfail/internal/logparse"
	"hpcfail/internal/logstore"
	"hpcfail/internal/workload"
)

// Engine is the incremental diagnosis pipeline: it holds the live
// corpus (logstore.Live), the per-node terminal/detection state, the
// job table, the apid index, the degradation flags and a memo of every
// diagnosis, and updates all of it per record batch. A batch costs its
// own records and touched keys, the re-diagnosis of the detections it
// dirtied, and two linear copies with small constants (the job table
// when a complete job changed, the detection order when a node
// refolded) — nothing is re-sorted or re-derived from the corpus, and
// the store's index maps are shared with each snapshot shard by shard,
// not cloned. Snapshot then assembles a *Result that is
// value-identical (and therefore renders byte-identical) to
// RunContext over a from-scratch store of the same arrival
// sequence; the differential harness in the repo root proves that
// equality after every batch.
//
// Three structures are kept ordered instead of being rebuilt:
//
//   - jobOrder, every job sorted by the canonical key of its first
//     scheduler record — the order JobTableBuilder.Jobs emits. A new job
//     is placed by binary search (an append when records arrive in
//     order); an out-of-order record that becomes a job's first is an
//     unlink + re-insert.
//   - order, every detection sorted by the canonical key of its emitting
//     terminal record. Only refolded nodes' entries are replaced, by one
//     linear merge per batch.
//   - the store's per-job span, which doubles as the apid → detections
//     reverse index: a detection carrying an apid was emitted by a
//     terminal record tagged with it.
//
// The invalidation rules are conservative supersets of Diagnose's true
// dependencies, so a diagnosis is only ever reused when every input it
// could have read is unchanged:
//
//   - new records on a node dirty that node's detections whose internal
//     [t-InternalWindow, t+1s) or external [t-ExternalWindow, t) window
//     could contain them;
//   - a changed job (fold output or first-seen position) dirties every
//     detection on the job's old and new nodes inside its old and new
//     [Start, End) spans — the exact reach of workload.JobOnNode;
//   - a changed apid resolution dirties detections whose terminal
//     carried the apid and detections whose internal window holds a
//     record tagged with it;
//   - new/changed/removed terminal records refold the whole node's
//     detection chain (refractory merging is per-node state).
//
// Engine is single-writer: callers serialise Seed, ApplyBatch and
// Snapshot (the HTTP server holds one mutex across them). Snapshots
// remain valid after further ApplyBatch calls.
type Engine struct {
	cfg  Config
	live *logstore.Live
	// store is the immutable view of live after the last batch; diagnosis
	// windows resolve against it and Snapshot hands it out as
	// Result.Store.
	store *logstore.Store
	seq   int64

	// terms holds each node's terminal records in canonical order; dets
	// holds the refolded per-node detection chains and order the same
	// detections in global canonical order.
	terms map[cname.Name][]termEntry
	dets  map[cname.Name][]detRec
	order []detRec

	// Job-table state: every job seen, by id and in first-seen order,
	// and the published table of complete jobs (copy-on-write: earlier
	// snapshots keep the slice they were given).
	jobByID  map[int64]*jobState
	jobOrder []*jobState
	jobs     []workload.Job

	// Apid-index state: the resolution map plus the canonical key of the
	// record that last wrote each entry (last write in canonical order
	// wins, as in alps.IndexBuilder over the sorted corpus).
	apids   map[int64]int64
	apidKey map[int64]recKey

	// Stream-family presence (monotone under appends) for Degradation.
	haveInt, haveExt, haveSched, haveALPS bool

	// diags memoizes raw (pre-degradation) diagnoses, one per live
	// detection.
	diags map[detKey]Diagnosis

	last ApplyStats
}

// ApplyStats counts the work the last Seed or ApplyBatch did, so dirty
// rules that fire too widely show up without a profiler.
type ApplyStats struct {
	// Records is the batch size.
	Records int
	// NodesRefolded counts nodes whose detection chain was re-derived.
	NodesRefolded int
	// JobsRefolded counts jobs whose scheduler records were re-folded.
	JobsRefolded int
	// Rediagnosed counts detections diagnosed again.
	Rediagnosed int
}

// jobState is one job's scheduler records in canonical order and their
// cached fold.
type jobState struct {
	id   int64
	recs []termEntry
	fold workload.Job
}

// first is the job's first-seen key, which orders the job table.
func (j *jobState) first() recKey { return j.recs[0].key }

// recKey is the canonical total order of the corpus: the ByTime
// comparator plus arrival sequence, which is exactly the stable order
// events.SortByTime imposes.
type recKey struct {
	t      int64
	stream events.Stream
	comp   cname.Name
	seq    int64
}

func keyBefore(a, b recKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.stream != b.stream {
		return a.stream < b.stream
	}
	if c := cname.Compare(a.comp, b.comp); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// termEntry is one keyed record in a per-node or per-job ordered list.
type termEntry struct {
	key recKey
	rec events.Record
}

// detKey is the memo identity of one detection.
type detKey struct {
	node     cname.Name
	t        int64
	terminal string
	jobID    int64
}

func keyOf(d Detection) detKey {
	return detKey{node: d.Node, t: d.Time.UnixNano(), terminal: d.Terminal, jobID: d.JobID}
}

// detRec pairs a detection with the canonical key of the terminal
// record that emitted it, which orders detections globally.
type detRec struct {
	det Detection
	key recKey
}

// NewEngine returns an empty incremental pipeline.
func NewEngine(cfg Config) *Engine {
	live := logstore.NewLive()
	return &Engine{
		cfg:     cfg,
		live:    live,
		store:   live.Snapshot(),
		terms:   map[cname.Name][]termEntry{},
		dets:    map[cname.Name][]detRec{},
		jobByID: map[int64]*jobState{},
		apids:   map[int64]int64{},
		apidKey: map[int64]recKey{},
		diags:   map[detKey]Diagnosis{},
	}
}

// insertEntry places e into the keyed list at its canonical position.
// Appends (the in-order common case) cost O(1); out-of-order arrivals
// shift the tail of that one list.
func insertEntry(list []termEntry, e termEntry) []termEntry {
	i := len(list)
	for i > 0 && keyBefore(e.key, list[i-1].key) {
		i--
	}
	list = append(list, termEntry{})
	copy(list[i+1:], list[i:])
	list[i] = e
	return list
}

// Seed installs a batch-built store as the engine's corpus by adoption:
// the store's indexes become the live indexes (logstore.LiveFrom) and
// only the diagnosis state is folded, so the corpus is indexed once.
// The result equals ApplyBatch(store.All()) on every observable. The
// store stays the caller's: the engine reads it, serves it as
// Result.Store until the next batch, and never writes through it. On an
// engine that already holds records there is nothing to adopt into and
// the store's records are applied as one batch.
func (e *Engine) Seed(store *logstore.Store) {
	if e.live.Len() > 0 {
		e.ApplyBatch(store.All())
		return
	}
	e.last = ApplyStats{}
	if store.Len() == 0 {
		return
	}
	e.live = logstore.LiveFrom(store)
	e.store = store
	e.fold(store.All())
}

// ApplyBatch folds one batch of records — in arrival order, exactly as
// handed to the parser/watcher — into the live pipeline state and
// re-diagnoses every detection the batch could have affected. The slice
// is not retained. The first batch of an empty engine is seeded: sorted
// and indexed in one pass, then adopted.
func (e *Engine) ApplyBatch(recs []events.Record) {
	e.last = ApplyStats{}
	if len(recs) == 0 {
		return
	}
	if e.live.Len() == 0 {
		e.Seed(logstore.New(recs))
		return
	}
	batch := make([]events.Record, len(recs))
	copy(batch, recs)
	events.SortByTime(batch)
	e.live.Apply(batch)
	e.store = e.live.Snapshot()
	e.fold(batch)
}

// LastApply reports the work done by the most recent Seed or ApplyBatch.
func (e *Engine) LastApply() ApplyStats { return e.last }

// touchedJob is the pre-batch state of a job the batch added records to.
type touchedJob struct {
	old workload.Job
	// moved: the job is new or an earlier record took over as its first,
	// so its place in the table (which decides equal-Start ties) changed.
	moved bool
}

// fold advances the diagnosis state over a canonically sorted batch
// whose records e.store already holds. Seeded and applied records take
// the same route, with arrival sequence numbers continuing in batch
// order.
func (e *Engine) fold(batch []events.Record) {
	refold := map[cname.Name]bool{}
	touched := map[*jobState]touchedJob{}
	apidOld := map[int64]int64{} // pre-batch Resolve output of touched apids
	type span struct{ lo, hi int64 }
	nodeSpans := map[cname.Name]*span{}

	for i := range batch {
		r := &batch[i]
		e.seq++
		k := recKey{t: r.Time.UnixNano(), stream: r.Stream, comp: r.Component, seq: e.seq}

		switch {
		case r.Stream.Internal():
			e.haveInt = true
		case r.Stream.External():
			e.haveExt = true
		case r.Stream == events.StreamScheduler:
			e.haveSched = true
		case r.Stream == events.StreamALPS:
			e.haveALPS = true
		}

		if r.Component.IsValid() && r.Component.Level() == cname.LevelNode {
			if sp := nodeSpans[r.Component]; sp == nil {
				nodeSpans[r.Component] = &span{lo: k.t, hi: k.t}
			} else {
				if k.t < sp.lo {
					sp.lo = k.t
				}
				if k.t > sp.hi {
					sp.hi = k.t
				}
			}
		}

		if IsTerminal(r) {
			e.terms[r.Component] = insertEntry(e.terms[r.Component], termEntry{key: k, rec: *r})
			refold[r.Component] = true
		}

		if r.Stream == events.StreamScheduler && r.JobID != 0 {
			js := e.jobByID[r.JobID]
			if js == nil {
				js = &jobState{id: r.JobID}
				e.jobByID[r.JobID] = js
			}
			tj, seen := touched[js]
			if !seen {
				tj.old = js.fold
			}
			// The job's place in jobOrder is keyed by its first record:
			// unlink before that changes, link again after.
			moved := len(js.recs) == 0 || keyBefore(k, js.first())
			if moved && len(js.recs) > 0 {
				e.unlinkJob(js)
			}
			js.recs = insertEntry(js.recs, termEntry{key: k, rec: *r})
			if moved {
				e.linkJob(js)
				tj.moved = true
			}
			touched[js] = tj
		}

		if r.Stream == events.StreamALPS && r.JobID != 0 {
			if apid := alps.Apid(r); apid != 0 {
				if prev, ok := e.apidKey[apid]; !ok || keyBefore(prev, k) {
					if _, touched := apidOld[apid]; !touched {
						apidOld[apid] = alps.Resolve(apid, e.apids)
					}
					e.apidKey[apid] = k
					e.apids[apid] = r.JobID
				}
			}
		}
	}

	// Every entry below comes from a post-refold chain, so dirty only
	// ever names live detections.
	dirty := map[detKey]Detection{}

	// Refold detection chains for nodes whose terminal set changed:
	// every detection of the node is re-derived and re-diagnosed, and
	// stale memo entries are dropped.
	for n := range refold {
		for _, dr := range e.dets[n] {
			delete(e.diags, keyOf(dr.det))
		}
		folded := e.refoldNode(n)
		e.dets[n] = folded
		for _, dr := range folded {
			dirty[keyOf(dr.det)] = dr.det
		}
	}
	if len(refold) > 0 {
		e.mergeOrder(refold)
	}

	// New records on a node dirty the detections whose evidence windows
	// can reach them: a record at tr is visible to detections with
	// t ∈ (tr-1s, tr+ExternalWindow] (external) or (tr-1s,
	// tr+InternalWindow] (internal); ExternalWindow ≥ InternalWindow in
	// every config this repo runs, and the union bound below is
	// conservative either way.
	reach := e.cfg.ExternalWindow
	if e.cfg.InternalWindow > reach {
		reach = e.cfg.InternalWindow
	}
	for n, sp := range nodeSpans {
		e.dirtyRange(dirty, n, sp.lo-int64(time.Second), sp.hi+int64(reach))
	}

	// Changed jobs dirty every detection JobOnNode could answer
	// differently for: the old and new node sets over the old and new
	// [Start, End) spans. A changed first-seen position (order decides
	// equal-Start ties) is treated as a change too. A job incomplete
	// before and after is in neither table, and JobOnNode sees only the
	// table: nothing to dirty, nothing to republish.
	jobsChanged := false
	for js, tj := range touched {
		js.fold = foldJob(js.id, js.recs)
		if !tj.moved && jobEqual(tj.old, js.fold) {
			continue
		}
		for _, j := range []workload.Job{tj.old, js.fold} {
			if !jobComplete(j) {
				continue
			}
			jobsChanged = true
			lo, hi := j.Start.UnixNano(), j.End.UnixNano()-1
			for _, n := range j.Nodes {
				e.dirtyRange(dirty, n, lo, hi)
			}
		}
	}
	if jobsChanged {
		e.publishJobs()
	}

	// Changed apid resolutions dirty detections that resolved the apid.
	// Both kinds are found through the apid's records in the store: a
	// detection whose terminal carried the apid sits at that terminal
	// record's node and time, and a detection whose internal window
	// holds an internal node record tagged with it sits within
	// InternalWindow after that record.
	for apid, old := range apidOld {
		if alps.Resolve(apid, e.apids) == old {
			continue
		}
		tagged := e.store.Job(apid)
		for i := 0; i < tagged.Len(); i++ {
			r := tagged.At(i)
			tr := r.Time.UnixNano()
			if IsTerminal(r) {
				e.dirtyRange(dirty, r.Component, tr, tr)
			}
			if !r.Stream.Internal() || !r.Component.IsValid() || r.Component.Level() != cname.LevelNode {
				continue
			}
			e.dirtyRange(dirty, r.Component, tr-int64(time.Second), tr+int64(e.cfg.InternalWindow))
		}
	}

	rc := &RootCauser{Store: e.store, Jobs: e.jobs, Cfg: e.cfg, Apids: e.apids}
	for k, d := range dirty {
		e.diags[k] = rc.Diagnose(d)
	}
	e.last = ApplyStats{
		Records:       len(batch),
		NodesRefolded: len(refold),
		JobsRefolded:  len(touched),
		Rediagnosed:   len(dirty),
	}
}

// linkJob places js into jobOrder at its first-seen key: an append when
// records arrive in order, a binary-search insert otherwise.
func (e *Engine) linkJob(js *jobState) {
	k := js.first()
	i := sort.Search(len(e.jobOrder), func(i int) bool { return keyBefore(k, e.jobOrder[i].first()) })
	e.jobOrder = append(e.jobOrder, nil)
	copy(e.jobOrder[i+1:], e.jobOrder[i:])
	e.jobOrder[i] = js
}

// unlinkJob removes js from jobOrder. Call before its first-seen key
// changes: the key finds it.
func (e *Engine) unlinkJob(js *jobState) {
	k := js.first()
	i := sort.Search(len(e.jobOrder), func(i int) bool { return !keyBefore(e.jobOrder[i].first(), k) })
	e.jobOrder = append(e.jobOrder[:i], e.jobOrder[i+1:]...)
}

// mergeOrder replaces the refolded nodes' entries in the global
// detection order with their new chains: one pass over the old order,
// merging in the (few) new entries sorted by key.
func (e *Engine) mergeOrder(refold map[cname.Name]bool) {
	var add []detRec
	for n := range refold {
		add = append(add, e.dets[n]...)
	}
	sort.Slice(add, func(i, j int) bool { return keyBefore(add[i].key, add[j].key) })
	out := make([]detRec, 0, len(e.order)+len(add))
	for _, dr := range e.order {
		if refold[dr.det.Node] {
			continue
		}
		for len(add) > 0 && keyBefore(add[0].key, dr.key) {
			out = append(out, add[0])
			add = add[1:]
		}
		out = append(out, dr)
	}
	e.order = append(out, add...)
}

// refoldNode re-runs the per-node refractory chain over the node's
// terminal records — the detector.add fold restricted to one node,
// which equals the global fold's output for that node because the
// refractory state is node-keyed.
func (e *Engine) refoldNode(n cname.Name) []detRec {
	var out []detRec
	var last time.Time
	have := false
	for _, te := range e.terms[n] {
		if have && te.rec.Time.Sub(last) < e.cfg.RefractoryGap {
			last = te.rec.Time
			continue
		}
		last = te.rec.Time
		have = true
		out = append(out, detRec{
			det: Detection{Node: te.rec.Component, Time: te.rec.Time, Terminal: te.rec.Category, JobID: te.rec.JobID},
			key: te.key,
		})
	}
	return out
}

// dirtyRange marks the node's detections with Time in [lo, hi]
// (inclusive, nanoseconds) dirty.
func (e *Engine) dirtyRange(dirty map[detKey]Detection, n cname.Name, lo, hi int64) {
	drs := e.dets[n]
	i, j := 0, len(drs)
	for i < j {
		mid := int(uint(i+j) >> 1)
		if drs[mid].det.Time.UnixNano() < lo {
			i = mid + 1
		} else {
			j = mid
		}
	}
	for ; i < len(drs); i++ {
		if drs[i].det.Time.UnixNano() > hi {
			return
		}
		dirty[keyOf(drs[i].det)] = drs[i].det
	}
}

// foldJob replays one job's scheduler records, in canonical order,
// through the job-table fold — identical to JobTableBuilder restricted
// to the job, since Add only reads and writes the record's own job.
func foldJob(id int64, list []termEntry) workload.Job {
	b := logparse.NewJobTableBuilder()
	for i := range list {
		b.Add(&list[i].rec)
	}
	j, ok := b.Job(id)
	if !ok {
		return workload.Job{ID: id}
	}
	return j
}

func jobEqual(a, b workload.Job) bool {
	if a.ID != b.ID || a.App != b.App || a.User != b.User ||
		!a.Submit.Equal(b.Submit) || !a.Start.Equal(b.Start) || !a.End.Equal(b.End) ||
		a.State != b.State || a.ExitCode != b.ExitCode || a.ReqMemMB != b.ReqMemMB ||
		a.Overallocated != b.Overallocated || len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}

func jobComplete(j workload.Job) bool { return !j.Start.IsZero() && !j.End.IsZero() }

// publishJobs reassembles the published table: complete jobs in
// jobOrder — exactly what JobTableBuilder.Jobs emits over the sorted
// corpus. Always a fresh slice, because earlier snapshots keep theirs,
// and nil while no job is complete, as the builder's is.
func (e *Engine) publishJobs() {
	var out []workload.Job
	for _, js := range e.jobOrder {
		if !jobComplete(js.fold) {
			continue
		}
		if out == nil {
			out = make([]workload.Job, 0, len(e.jobOrder))
		}
		out = append(out, js.fold)
	}
	e.jobs = out
}

// Snapshot assembles the Result for the corpus applied so far. The
// returned value shares no mutable state with the engine and stays
// valid across later ApplyBatch calls. The int argument is ignored; it
// stays because the benchmark harness in bench/ pins this signature.
func (e *Engine) Snapshot(int) *Result {
	var dets []Detection
	if len(e.order) > 0 {
		dets = make([]Detection, len(e.order))
	}
	diags := make([]Diagnosis, len(e.order))
	for i, dr := range e.order {
		dets[i] = dr.det
		d, ok := e.diags[keyOf(dr.det)]
		if !ok {
			// Defensive: a detection the invalidation rules somehow never
			// diagnosed. Diagnose it now rather than serve a hole.
			rc := &RootCauser{Store: e.store, Jobs: e.jobs, Cfg: e.cfg, Apids: e.apids}
			d = rc.Diagnose(dr.det)
			e.diags[keyOf(dr.det)] = d
		}
		diags[i] = d
	}
	deg := Degradation{
		MissingInternal:  !e.haveInt,
		MissingExternal:  !e.haveExt,
		MissingScheduler: !e.haveSched,
		MissingALPS:      !e.haveALPS,
	}
	applyDegradation(diags, deg)
	return &Result{Store: e.store, Jobs: e.jobs, Detections: dets, Diagnoses: diags, Degradation: deg}
}

// Store returns the current corpus snapshot (also available as
// Snapshot().Store).
func (e *Engine) Store() *logstore.Store { return e.store }

// Len returns the live record count.
func (e *Engine) Len() int { return e.live.Len() }
