package broker

import (
	"container/heap"
	"sort"
	"time"

	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
)

// candidate is one matched site with fresh state.
type candidate struct {
	site   *site.Site
	free   int // effective free CPUs (after leases)
	queued int
	rank   float64
	noise  float64 // randomized tie-break
}

// candBetter orders candidates best first: rank descending, then the
// seeded tie-break noise, then site name so the order is total.
func candBetter(a, b *candidate) bool {
	if a.rank != b.rank {
		return a.rank > b.rank
	}
	if a.noise != b.noise {
		return a.noise < b.noise
	}
	return a.site.Name() < b.site.Name()
}

// selectionNoise derives a candidate's tie-break noise in [0, 1) from
// the pass nonce and the site name (FNV-1a). Hashing instead of
// drawing per candidate makes the noise — and with it the selection
// outcome — independent of enumeration order, so the streamed
// (shard-major) and whole-snapshot (name-major) passes pick identical
// sites for the same seed.
func selectionNoise(nonce uint64, name string) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= (nonce >> (8 * i)) & 0xff
		h *= prime64
	}
	return float64(h>>11) / (1 << 53)
}

// localSnapshot rebuilds the local-registry snapshot for brokers
// running without an information service. The previous snapshot is
// threaded through so the schema pointer — and with it each job's
// compiled-predicate cache — survives rebuilds; records come from
// site.Record() already private, so the snapshot takes ownership
// instead of cloning a second time.
func (b *Broker) localSnapshot() *infosys.Snapshot {
	recs := make([]infosys.SiteRecord, 0, len(b.sites))
	for _, s := range b.sites {
		recs = append(recs, s.Record())
	}
	snap := infosys.NewSnapshotOwned(recs, b.lastSnap)
	b.lastSnap = snap
	return snap
}

// discover queries the information system, recording the discovery
// phase on h, and hands cont the snapshot. The query latency is one
// timer event; the snapshot is read at the post-latency instant. The
// snapshot is immutable and shared between every pass of the current
// registry epoch.
func (b *Broker) discover(h *Handle, cont func(*infosys.Snapshot)) {
	h.state = Matching
	start := b.sim.Now()
	finish := func(snap *infosys.Snapshot) {
		h.Phases.Discovery = b.sim.Since(start)
		h.scanned = snap.Len()
		cont(snap)
	}
	if info := b.cfg.Info; info != nil {
		b.sim.AfterFunc(info.QueryLatency(), func() { finish(info.SnapshotImmediate()) })
		return
	}
	finish(b.localSnapshot())
}

// probeTask carries one requirement-matched site through the direct
// state probe: idx is the site's record index in snap (the snapshot —
// whole-grid or per-shard — the record was matched from), free and
// queued are filled by probeSites, prelim and noise order the
// streamed pass's top-K heap. The incremental pass has no snapshot; it
// carries the mirror's flat value vector and schema instead.
type probeTask struct {
	st           *site.Site
	snap         *infosys.Snapshot
	vals         []any           // snapshot-less (incremental) source: flat values...
	schema       *infosys.Schema // ...laid out against this schema
	idx          int
	free, queued int
	ok           bool    // direct probe answered (site reachable)
	prelim       float64 // published-state rank (top-K heap ordering)
	noise        float64 // seeded tie-break, shared with the final order
}

// matchSchema returns the schema the task's attributes are laid out
// against, whichever source the pass matched it from.
func (p *probeTask) matchSchema() *infosys.Schema {
	if p.snap != nil {
		return p.snap.Schema()
	}
	return p.schema
}

// matchAttrs returns a pooled flat attribute vector for the task's
// record; the caller must Release it.
func (p *probeTask) matchAttrs() *infosys.MatchAttrs {
	if p.snap != nil {
		return p.snap.MatchAttrs(p.idx)
	}
	return infosys.PooledMatchAttrs(p.schema, p.vals)
}

// probeBetter orders heap entries by preliminary rank descending, then
// noise, then site name — the same total order candBetter applies
// after probing.
func probeBetter(a, b *probeTask) bool {
	if a.prelim != b.prelim {
		return a.prelim > b.prelim
	}
	if a.noise != b.noise {
		return a.noise < b.noise
	}
	return a.st.Name() < b.st.Name()
}

// topkHeap is a bounded min-heap of the best K candidates seen so far:
// the root is the worst kept entry, so a better newcomer replaces it
// in O(log K).
type topkHeap []probeTask

func (h topkHeap) Len() int           { return len(h) }
func (h topkHeap) Less(i, j int) bool { return probeBetter(&h[j], &h[i]) }
func (h topkHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *topkHeap) Push(x any)        { *h = append(*h, x.(probeTask)) }
func (h *topkHeap) Pop() any          { old := *h; n := len(old) - 1; x := old[n]; *h = old[:n]; return x }

// matchPass runs one discovery+selection attempt for h and hands the
// ordered candidates to cont. By default the registry streams past
// page by page (matchStream); Config.Incremental routes the pass
// through the delta-subscription matchmaker (incremental.go);
// Config.PageSize < 0 selects the pre-paging whole-snapshot pass, kept
// as the reference path.
func (b *Broker) matchPass(h *Handle, excluded map[string]bool, cont func([]candidate)) {
	if b.cfg.Incremental {
		b.matchIncremental(h, excluded, cont)
		return
	}
	if b.cfg.PageSize < 0 {
		b.discover(h, func(snap *infosys.Snapshot) {
			b.selection(h, snap, excluded, cont)
		})
		return
	}
	b.matchStream(h, excluded, cont)
}

// matchStream is the paged matchmaking pass: discovery hands back a
// cursor over per-shard snapshots and each page is filtered against
// the job's compiled Requirements as it streams past. With TopK > 0
// only the K best candidates by published-state rank are held (heap),
// so the pass keeps O(PageSize + K) state no matter how many sites
// match; with TopK <= 0 every match is kept and the pass reproduces
// the whole-snapshot selection exactly. Survivors are probed and
// re-ranked on fresh state by finishSelection. The query latency is
// one timer event; the page loop is pure computation.
func (b *Broker) matchStream(h *Handle, excluded map[string]bool, cont func([]candidate)) {
	h.state = Matching

	dstart := b.sim.Now()
	withCursor := func(cur *infosys.Cursor) {
		h.Phases.Discovery = b.sim.Since(dstart)

		sstart := b.sim.Now()
		nonce := b.rng.Uint64()
		h.unavailable, h.scanned, h.peak = 0, 0, 0
		topk := b.cfg.TopK
		keep := topkHeap(b.getTasks())
		for page, ok := cur.Next(); ok; page, ok = cur.Next() {
			b.scanPage(h, page, excluded, nonce, topk, &keep)
		}
		b.finishSelection(h, []probeTask(keep), func(cands []candidate) {
			b.putTasks([]probeTask(keep))
			h.Phases.Selection += b.sim.Since(sstart)
			cont(cands)
		})
	}
	if info := b.cfg.Info; info != nil {
		b.sim.AfterFunc(info.QueryLatency(), func() { withCursor(info.DiscoverImmediate(b.cfg.PageSize)) })
		return
	}
	withCursor(b.localSnapshot().Cursor(b.cfg.PageSize))
}

// scanPage filters one discovery page into the bounded top-K
// candidate heap. It is matchStream's page loop: pure computation, no
// virtual time passes inside a page — probes and page latency happen
// outside — so the clock is read once per page, and the scan index
// resolves a record's registered site and breaker state in a single
// lookup. The pass visits every published record, which made the
// per-record sites/health/clock triple the dominant matchmaking cost on
// large grids.
func (b *Broker) scanPage(h *Handle, page infosys.Page, excluded map[string]bool, nonce uint64, topk int, keep *topkHeap) {
	job := h.request.Job
	snap := page.Snapshot()
	// The schema is shared service-wide, so this compiles once per
	// job and is a cache hit on every later page and pass.
	req, rank := job.CompiledPredicates(snap.Schema())
	now := b.sim.Now()
	for i := 0; i < page.Len(); i++ {
		h.scanned++
		name := page.Name(i)
		if excluded[name] {
			continue
		}
		ent, registered := b.scan[name]
		hl := ent.hl
		if !registered {
			// A stale record may still carry breaker state (the site
			// was unregistered after failures were recorded).
			hl = b.health[name]
		}
		if b.siteExcludedAt(hl, now) {
			h.unavailable++
			continue
		}
		if !registered {
			continue // stale record for an unregistered site
		}
		st := ent.st
		if req != nil {
			m := page.MatchAttrs(i)
			pass, err := req.EvalBool(m.Values())
			m.Release()
			if err != nil || !pass {
				continue
			}
		}
		pen, pok := b.dataPenalty(job, name)
		if !pok {
			continue // some input dataset is unobtainable here
		}
		p := probeTask{st: st, snap: snap, idx: page.Index(i)}
		if !b.cfg.Deterministic {
			p.noise = selectionNoise(nonce, name)
		}
		if topk > 0 {
			if rank != nil {
				m := page.MatchAttrs(i)
				r, err := rank.EvalNumber(m.Values())
				m.Release()
				if err != nil {
					continue
				}
				p.prelim = r - pen
			} else {
				p.prelim = float64(page.RecordShared(i).FreeCPUs) - pen
			}
			if len(*keep) == topk {
				if probeBetter(&p, &(*keep)[0]) {
					(*keep)[0] = p
					heap.Fix(keep, 0)
				}
			} else {
				heap.Push(keep, p)
			}
		} else {
			*keep = append(*keep, p)
		}
		if len(*keep) > h.peak {
			h.peak = len(*keep)
		}
	}
}

// selection is the whole-snapshot matchmaking pass: it filters the
// full snapshot against the job's compiled Requirements and hands the
// matches to finishSelection for probing and ranking. The streamed
// pass (matchStream) replaces it on the hot path; it remains the
// reference implementation and the equivalence-test oracle.
func (b *Broker) selection(h *Handle, snap *infosys.Snapshot, excluded map[string]bool, cont func([]candidate)) {
	start := b.sim.Now()

	job := h.request.Job
	req, _ := job.CompiledPredicates(snap.Schema())
	nonce := b.rng.Uint64()

	// Phase 1: requirements filtering against published attributes.
	// Pure computation — no simulated time passes.
	h.unavailable = 0
	h.scanned = snap.Len()
	kept := make([]probeTask, 0, snap.Len())
	for i := 0; i < snap.Len(); i++ {
		name := snap.Name(i)
		if excluded[name] {
			continue
		}
		if b.siteExcluded(name) {
			h.unavailable++
			continue
		}
		st, ok := b.sites[name]
		if !ok {
			continue // stale record for an unregistered site
		}
		if req != nil {
			m := snap.MatchAttrs(i)
			ok, err := req.EvalBool(m.Values())
			m.Release()
			if err != nil || !ok {
				continue
			}
		}
		if _, pok := b.dataPenalty(job, name); !pok {
			continue // some input dataset is unobtainable here
		}
		p := probeTask{st: st, snap: snap, idx: i}
		if !b.cfg.Deterministic {
			p.noise = selectionNoise(nonce, name)
		}
		kept = append(kept, p)
	}
	h.peak = len(kept)
	b.finishSelection(h, kept, func(cands []candidate) {
		h.Phases.Selection += b.sim.Since(start)
		cont(cands)
	})
}

// finishSelection contacts each kept site directly for up-to-date
// queue state (serially or probeWidth-wide, see Config.ProbeWidth),
// applies leases, ranks the survivors on the fresh state (job Rank
// expression or free CPUs), and hands cont the candidates best first
// with the seeded tie-break. A candidate whose Rank evaluation errors
// is excluded, exactly like a failing Requirements evaluation. Shared
// by every pass.
func (b *Broker) finishSelection(h *Handle, kept []probeTask, cont func([]candidate)) {
	// Probe in site-name order no matter how the pass enumerated its
	// matches (whole snapshot, shard-major stream, top-K heap): probes
	// spend simulated time, so a stable order keeps lease expiries and
	// concurrent passes interleaving identically across paths.
	sortTasksByName(kept)
	// "Information may not be completely accurate ... CrossBroker
	// contacts each remote site individually and gets the most updated
	// information about the state of their local queues."
	b.probeSites(kept, func() {
		cont(b.rankProbed(h, kept))
	})
}

// sortTasksByName orders probe tasks by site name — the stable probe
// order every pass shares.
func sortTasksByName(kept []probeTask) {
	sort.Slice(kept, func(i, j int) bool { return kept[i].st.Name() < kept[j].st.Name() })
}

// rankProbed is the pure post-probe half of finishSelection: apply
// probe outcomes, re-rank survivors on fresh state, order best first.
func (b *Broker) rankProbed(h *Handle, kept []probeTask) []candidate {
	job := h.request.Job
	cands := make([]candidate, 0, len(kept))
	for _, p := range kept {
		if !p.ok {
			// The direct probe went unanswered: the record is stale,
			// the site is down or cut off. Exclude it this pass.
			h.unavailable++
			continue
		}
		c := candidate{site: p.st, free: p.free, queued: p.queued, noise: p.noise}
		// The staging penalty is recomputed here (not carried from the
		// pass) so every path derives the final rank from the same
		// inputs; unobtainable sites were already excluded pre-probe.
		pen, _ := b.dataPenalty(job, p.st.Name())
		_, rank := job.CompiledPredicates(p.matchSchema())
		if rank != nil {
			m := p.matchAttrs()
			m.SetFloat(infosys.AttrFreeCPUs, float64(p.free))
			m.SetFloat(infosys.AttrQueuedJobs, float64(p.queued))
			r, err := rank.EvalNumber(m.Values())
			m.Release()
			if err != nil {
				continue
			}
			c.rank = r - pen
		} else {
			c.rank = float64(p.free) - pen
		}
		cands = append(cands, c)
	}
	// Best rank first; equal ranks in seeded-noise order (the paper's
	// randomized selection "to generate different answers when there
	// are multiple resource choices"); in Deterministic mode all noise
	// is zero and ties resolve by site name.
	sort.Slice(cands, func(i, j int) bool { return candBetter(&cands[i], &cands[j]) })
	return cands
}

// getTasks and putTasks pool probeTask slices across streamed
// matchmaking passes: the replay hot loop runs one pass per
// submission, and a fresh slice per pass was the broker's largest
// allocation source. A free list (rather than a single scratch
// buffer) is needed because probing spends simulated time, so several
// passes can be in flight. The whole-snapshot reference pass does not
// pool — its allocations are meant to scale with the grid, which is
// exactly the contrast the scale experiment measures.
func (b *Broker) getTasks() []probeTask {
	if n := len(b.taskPool); n > 0 {
		t := b.taskPool[n-1]
		b.taskPool = b.taskPool[:n-1]
		return t
	}
	return nil
}

func (b *Broker) putTasks(t []probeTask) {
	for i := range t {
		t[i] = probeTask{} // drop snapshot/site pointers
	}
	b.taskPool = append(b.taskPool, t[:0])
}

// probeSites fills each task's free/queued fields via the site's
// direct state probe, subtracting the broker's active leases as each
// answer arrives (so concurrent matchmaking passes see each other's
// reservations), then calls cont. With ProbeWidth <= 1 sites are
// contacted one after another, a continuation chain of one probe event
// each (the paper's behavior: selection costs the sum of site round
// trips, ~3 s for 20 sites in Table I). With a larger width one worker
// per slot is posted and each chains through the shared next counter,
// so the elapsed simulated time is the maximum round trip over each
// worker's share. Everything runs on the one simulation thread, so the
// shared counters and the health map need no locking and the probe
// order stays deterministic.
func (b *Broker) probeSites(tasks []probeTask, cont func()) {
	n := len(tasks)
	if n == 0 {
		cont()
		return
	}
	handle := func(i, free, queued int, ok bool) {
		tasks[i].ok = ok
		if !ok {
			b.noteSiteFailure(tasks[i].st.Name())
			return
		}
		b.noteProbeAnswered(tasks[i].st.Name())
		free -= b.activeLeases(tasks[i].st.Name())
		if free < 0 {
			free = 0
		}
		tasks[i].free, tasks[i].queued = free, queued
	}
	width := b.cfg.ProbeWidth
	if width >= 0 && width <= 1 {
		var step func(i int)
		step = func(i int) {
			if i == n {
				cont()
				return
			}
			tasks[i].st.QueryStateAsync(func(free, queued int, ok bool) {
				handle(i, free, queued, ok)
				step(i + 1)
			})
		}
		step(0)
		return
	}
	workers := n
	if width > 0 && width < n {
		workers = width
	}
	next := 0
	remaining := workers
	done := b.sim.NewTrigger()
	var runWorker func()
	runWorker = func() {
		if next >= n {
			remaining--
			if remaining == 0 {
				done.Fire()
			}
			return
		}
		i := next
		next++
		tasks[i].st.QueryStateAsync(func(free, queued int, ok bool) {
			handle(i, free, queued, ok)
			runWorker()
		})
	}
	for w := 0; w < workers; w++ {
		b.sim.Post(runWorker)
	}
	done.WaitThen(cont)
}

// PassStats describes one matchmaking pass for instrumentation (the
// scale sweep and benchmarks).
type PassStats struct {
	// Scanned counts the registry records the pass enumerated.
	Scanned int
	// Candidates is the number of ordered candidates returned.
	Candidates int
	// Peak is the most candidates the pass held at once — the pass's
	// memory high-water mark, bounded by Config.TopK when set.
	Peak int
	// Unavailable counts matches skipped as quarantined or probe-dead.
	Unavailable int
	// Deltas and Repins count, for the incremental pass, the per-site
	// deltas applied and the shard snapshot re-pins (gap fallbacks) the
	// deciding poll performed; zero on the other paths.
	Deltas, Repins int
	// Discovery and Selection are the simulated phase durations.
	Discovery, Selection time.Duration
}

// SelectionPassStatsAsync runs one matchmaking pass for job from any
// context and delivers the pass's instrumentation counters and
// simulated phase durations to cont when the pass completes (the scale
// sweep and benchmarks measure the pipeline end to end with it).
func (b *Broker) SelectionPassStatsAsync(job *jdl.Job, cont func(PassStats)) {
	h := &Handle{request: Request{Job: job}}
	b.matchPass(h, nil, func(cands []candidate) {
		cont(PassStats{
			Scanned:     h.scanned,
			Candidates:  len(cands),
			Peak:        h.peak,
			Unavailable: h.unavailable,
			Deltas:      h.deltas,
			Repins:      h.repins,
			Discovery:   h.Phases.Discovery,
			Selection:   h.Phases.Selection,
		})
	})
}

// leaseEntry is a batch of leases sharing one expiry instant.
type leaseEntry struct {
	exp time.Time
	n   int
}

// leaseQueue tracks a site's exclusive-temporal-access leases as a
// count plus a queue of expiry batches sorted by expiry. Without
// LeaseJitter expiries arrive in non-decreasing order and pushes are
// O(1) appends; a jittered expiry may land slightly out of order and
// is bubbled back to its slot (the jitter window is a fraction of one
// lease duration, so the walk stays short). Pruning pops expired
// batches from the front in O(1) amortized, replacing the per-CPU
// slice the broker previously rebuilt on every pass.
type leaseQueue struct {
	entries []leaseEntry
	head    int
	count   int
}

// push adds n leases expiring at exp, merging with the newest batch
// when the expiry matches (several CPUs leased in one pass).
func (q *leaseQueue) push(exp time.Time, n int) {
	q.count += n
	if last := len(q.entries) - 1; last >= q.head && q.entries[last].exp.Equal(exp) {
		q.entries[last].n += n
		return
	}
	q.entries = append(q.entries, leaseEntry{exp: exp, n: n})
	for i := len(q.entries) - 1; i > q.head && q.entries[i].exp.Before(q.entries[i-1].exp); i-- {
		q.entries[i], q.entries[i-1] = q.entries[i-1], q.entries[i]
	}
}

// prune drops batches whose expiry has passed and returns the live
// lease count.
func (q *leaseQueue) prune(now time.Time) int {
	for q.head < len(q.entries) && !q.entries[q.head].exp.After(now) {
		q.count -= q.entries[q.head].n
		q.entries[q.head] = leaseEntry{}
		q.head++
	}
	if q.head == len(q.entries) {
		q.entries = q.entries[:0]
		q.head = 0
	}
	return q.count
}

// drop releases n leases from the newest batches (the job started or
// failed, so the most recent reservation is undone), mirroring the
// previous slice truncation.
func (q *leaseQueue) drop(n int) {
	for n > 0 && len(q.entries) > q.head {
		last := len(q.entries) - 1
		if q.entries[last].n > n {
			q.entries[last].n -= n
			q.count -= n
			return
		}
		n -= q.entries[last].n
		q.count -= q.entries[last].n
		q.entries = q.entries[:last]
	}
	if q.head == len(q.entries) {
		q.entries = q.entries[:0]
		q.head = 0
	}
}

// activeLeases counts unexpired leases for a site, pruning expired
// ones.
func (b *Broker) activeLeases(name string) int {
	q := b.leases[name]
	if q == nil {
		return 0
	}
	return q.prune(b.sim.Now())
}

// lease reserves n CPUs on a site for the exclusive-temporal-access
// window on behalf of h's current attempt. With LeaseJitter set the
// window is stretched by a seeded random fraction, so two federated
// brokers whose leases were acquired in the same tick expire — and
// re-probe the grid — at different instants.
func (b *Broker) lease(h *Handle, name string, n int) {
	q := b.leases[name]
	if q == nil {
		q = &leaseQueue{}
		b.leases[name] = q
	}
	d := b.cfg.LeaseDuration
	if b.cfg.LeaseJitter > 0 {
		d += time.Duration(b.cfg.LeaseJitter * b.rng.Float64() * float64(d))
	}
	q.push(b.sim.Now().Add(d), n)
	b.cfg.Trace.Emit(trace.Event{Kind: trace.LeaseAcquired, Job: h.ID, Site: name, N: n})
}

// unlease releases n of h's leases on a site (the job started or
// failed). Deferred unleases may run after the job's terminal event
// and after a site death dropped the whole queue; the trace checker
// accounts for both.
func (b *Broker) unlease(h *Handle, name string, n int) {
	if q := b.leases[name]; q != nil {
		q.drop(n)
	}
	b.cfg.Trace.Emit(trace.Event{Kind: trace.LeaseReleased, Job: h.ID, Site: name, N: n})
}

// admissionOK applies the fair-share rejection rule when resources are
// insufficient.
func (b *Broker) admissionOK(user string) bool {
	if b.cfg.Fair == nil || b.cfg.RejectAbove <= 0 {
		return true
	}
	return b.cfg.Fair.Priority(user) <= b.cfg.RejectAbove
}

// account registers a fair-share allocation for a started job.
func (b *Broker) account(h *Handle, cpus int) {
	if b.cfg.Fair == nil {
		return
	}
	job := h.request.Job
	class := fairshareClass(job)
	b.cfg.Fair.Allocate(h.ID, h.request.User, cpus, class, job.PerformanceLoss)
}

// release drops the fair-share allocation when the job ends.
func (b *Broker) release(h *Handle) {
	if b.cfg.Fair != nil {
		b.cfg.Fair.Release(h.ID)
	}
}

// kickDispatch schedules a broker-queue pass (batch jobs waiting for
// resources).
func (b *Broker) kickDispatch() {
	if b.dispatching || len(b.pendingBatch) == 0 {
		return
	}
	b.dispatching = true
	b.sim.AfterFunc(0, func() {
		b.dispatching = false
		b.dispatchPending()
	})
}

// dispatchPending retries queued batch jobs, best fair-share priority
// first. Priorities are snapshotted before sorting: fair-share
// priorities decay over time, and calling Priority inside the
// comparator lets a mid-sort decay produce inconsistent comparisons
// (a strict-weak-ordering violation sort.SliceStable may answer with
// an arbitrary permutation).
func (b *Broker) dispatchPending() {
	if len(b.pendingBatch) == 0 {
		return
	}
	queue := b.pendingBatch
	b.pendingBatch = nil
	if b.cfg.Fair != nil {
		prio := make([]float64, len(queue))
		for i, h := range queue {
			prio[i] = b.cfg.Fair.Priority(h.request.User)
		}
		order := make([]int, len(queue))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool { return prio[order[i]] < prio[order[j]] })
		sorted := make([]*Handle, len(queue))
		for i, k := range order {
			sorted[i] = queue[k]
		}
		queue = sorted
	}
	for _, h := range queue {
		h := h
		if h.state == Done || h.state == Failed {
			continue
		}
		if h.abort.Fired() {
			b.fail(h, h.abortErr)
			continue
		}
		b.sim.Post(func() { b.runBatch(h) })
	}
}

// scheduleRetry re-queues a batch job with capped exponential backoff
// (plus seeded jitter), or aborts it terminally once the resubmission
// budget is spent. With the default RetryBackoff of 1 the pacing is
// the fixed RetryInterval of the original design.
func (b *Broker) scheduleRetry(h *Handle) {
	if b.cfg.MaxResubmits > 0 && h.resub > b.cfg.MaxResubmits {
		b.failResubmits(h)
		return
	}
	// Queue-pressure offload: before parking the job, let the
	// federation ship it to a less-loaded peer. A true return means a
	// peer owns the job now (or a transfer is in flight that will
	// Requeue it here if undeliverable).
	if b.offloader != nil && b.offloader(h) {
		return
	}
	d := b.retryDelay(h.backoffs)
	h.backoffs++
	b.pendingBatch = append(b.pendingBatch, h)
	b.sim.AfterFunc(d, b.kickDispatch)
}

// retryDelay computes the dispatch delay for a job's n-th re-queue:
// RetryInterval × RetryBackoff^n, capped at RetryMaxInterval, plus a
// seeded jitter fraction.
func (b *Broker) retryDelay(n int) time.Duration {
	d := b.cfg.RetryInterval
	for i := 0; i < n && d < b.cfg.RetryMaxInterval; i++ {
		d = time.Duration(float64(d) * b.cfg.RetryBackoff)
	}
	if d > b.cfg.RetryMaxInterval {
		d = b.cfg.RetryMaxInterval
	}
	if b.cfg.RetryJitter > 0 {
		d += time.Duration(b.cfg.RetryJitter * b.rng.Float64() * float64(d))
	}
	return d
}

// waitTrigger waits for t up to d; cont receives whether t fired
// before the deadline.
func (b *Broker) waitTrigger(t *simclock.Trigger, d time.Duration, cont func(fired bool)) {
	w := b.sim.NewTrigger()
	timer := b.sim.AfterFunc(d, w.Fire)
	t.OnFire(w.Fire)
	w.WaitThen(func() {
		timer.Stop()
		cont(t.Fired())
	})
}
