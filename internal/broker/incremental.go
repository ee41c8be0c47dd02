package broker

// Incremental matchmaking over delta subscriptions: instead of
// re-scanning the registry every pass (whole snapshot or paged
// stream), the broker mirrors the registry once and repairs it — and a
// standing rank tree per job awaiting a match — only for sites named
// in arriving deltas. A pass then costs one poll round trip plus work
// proportional to churn, not grid size, which is the scaling contrast
// the scale experiment's churn axis measures.
//
// A tree stands only while its job waits for a site: it is built on
// the job's first pass, kept (and repaired) while the job retries
// Pending, and released when a flow commits the job to a site or to
// glide-in agents (Broker.emitMatched) or the job ends. A job that
// re-enters matching after an eviction rebuilds it from the mirror.
//
// Equivalence with the reference whole-snapshot pass is structural:
//
//   - The mirror replays the shard logs, so after a poll it equals the
//     registry (delta) or the re-pinned shard snapshots (gap) — the
//     same records a snapshot pass would enumerate.
//   - Each job's standing tree holds exactly the requirement-passing
//     sites, ordered by (preliminary rank desc, name asc) — a treap
//     with name-hash priorities, so its shape (and every walk) is
//     independent of the order mutations arrived in.
//   - Top-K extraction walks that order and resolves the boundary tie
//     group by (noise asc, name asc) — the same total order the
//     streamed pass's bounded heap keeps — so the kept set is the
//     heap's kept set; survivors then share finishSelection, which
//     probes in name order and ranks identically.
//
// The equivalence tests (incremental_test.go) assert candidate-level
// byte equality against the oracle, the same way PR 5 proved
// streaming ≡ snapshot.

import (
	"sort"
	"time"

	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/simclock"
	"crossbroker/internal/trace"
)

// mirrorEntry is the subscriber's copy of one registry record: the
// record as published (shared, no-mutate) plus its flat attribute
// vector against the subscriber's schema and the shard it lives on.
// The entry pointer is stable per site name, so standing tree nodes
// see updated vals without re-linking.
type mirrorEntry struct {
	rec   infosys.SiteRecord
	vals  []any
	shard int
}

// standNode is one site in a job's standing rank tree — a treap keyed
// by (prelim desc, name asc) with priorities hashed from the name, so
// the tree's shape is a pure function of its membership and every
// in-order walk enumerates the streamed pass's heap order.
type standNode struct {
	left, right *standNode
	prio        uint64
	prelim      float64
	rankErr     bool // Rank evaluation errored (excluded from top-K)
	name        string
	ent         *mirrorEntry
}

// jobState is the standing matchmaking state of one job awaiting a
// match; it is dropped when the job is placed or ends.
type jobState struct {
	job   *jdl.Job
	root  *standNode
	nodes map[string]*standNode
}

// subscriber is the broker's delta-subscription mirror of the
// registry: per-shard epoch positions, the record mirror, and a
// standing rank tree per job awaiting a match, all repaired in place
// as deltas arrive.
type subscriber struct {
	b       *Broker
	src     infosys.DeltaSource
	epochs  []uint64 // position per shard
	applied uint64   // sum of positions == global epoch caught up to
	mirror  map[string]*mirrorEntry
	schema  *infosys.Schema
	jobs    map[*jdl.Job]*jobState

	polling     bool // a poll is mid-flight (waiting out link costs)
	pollWaiters []*simclock.Trigger

	// dataVer is the catalog version the standing trees were built
	// against; a mutation invalidates every prelim (replica moves
	// change penalties grid-wide), so the trees rebuild wholesale.
	dataVer uint64

	updScratch []infosys.SubUpdate
	group      []probeTask // boundary tie-group scratch
}

func newSubscriber(b *Broker, src infosys.DeltaSource) *subscriber {
	return &subscriber{
		b:      b,
		src:    src,
		epochs: make([]uint64, src.ShardCount()),
		mirror: make(map[string]*mirrorEntry),
		jobs:   make(map[*jdl.Job]*jobState),
	}
}

// poll brings the mirror up to date, then calls cont: every shard is
// asked for what changed since the subscriber's position, the answers
// are fetched at one point in time, and their wire costs are paid as
// parallel per-shard link waits (one posted event plus one timer event
// per shard) — each shard is an independently-publishing unit behind
// its own link, so the pass resumes when the slowest shard's answer
// lands.
func (s *subscriber) poll(h *Handle, cont func()) {
	// Serialize concurrent passes. A pass waiting out link costs must
	// not be barged in on: a second pass would reuse the scratch
	// answers and, worse, could apply answers out of fetch order,
	// regressing the mirror to stale records. Queue behind the
	// in-flight poll and fetch from the advanced positions instead.
	if s.polling {
		w := s.b.sim.NewTrigger()
		s.pollWaiters = append(s.pollWaiters, w)
		w.WaitThen(func() { s.poll(h, cont) })
		return
	}
	s.polling = true

	n := len(s.epochs)
	if cap(s.updScratch) < n {
		s.updScratch = make([]infosys.SubUpdate, n)
	}
	upds := s.updScratch[:n]
	var maxCost time.Duration
	for i := range upds {
		upds[i] = s.src.SubscribeImmediate(i, s.epochs[i])
		if upds[i].Cost > maxCost {
			maxCost = upds[i].Cost
		}
	}
	applyAll := func() {
		for i := range upds {
			s.apply(&upds[i], h)
			upds[i] = infosys.SubUpdate{} // release snapshot/delta references
		}
		s.polling = false
		ws := s.pollWaiters
		s.pollWaiters = nil
		for _, w := range ws {
			w.Fire()
		}
		cont()
	}
	if maxCost == 0 {
		applyAll()
		return
	}
	remaining := n
	done := s.b.sim.NewTrigger()
	for i := range upds {
		cost := upds[i].Cost
		s.b.sim.Post(func() {
			s.b.sim.AfterFunc(cost, func() {
				remaining--
				if remaining == 0 {
					done.Fire()
				}
			})
		})
	}
	done.WaitThen(applyAll)
}

// apply folds one shard's answer into the mirror and every standing
// tree, advancing the shard position to the answer's ToEpoch (for a
// gap fallback that is the re-pinned snapshot's own epoch, so the
// first post-fallback delta is applied exactly once).
func (s *subscriber) apply(u *infosys.SubUpdate, h *Handle) {
	if u.Schema != s.schema {
		s.rebuildSchema(u.Schema)
	}
	if u.Gap {
		s.repin(u)
		if h != nil {
			h.repins++
		}
		s.b.cfg.Trace.Emit(trace.Event{Kind: trace.SubscriptionGap, N: u.Shard, Epoch: u.ToEpoch})
	} else {
		for i := range u.Deltas {
			s.applyDelta(&u.Deltas[i], u.Shard)
		}
		if h != nil {
			h.deltas += len(u.Deltas)
		}
	}
	if u.ToEpoch > s.epochs[u.Shard] {
		s.applied += u.ToEpoch - s.epochs[u.Shard]
		s.epochs[u.Shard] = u.ToEpoch
	}
}

// applyDelta repairs the mirror and every standing tree for one
// mutated site.
func (s *subscriber) applyDelta(d *infosys.Delta, shard int) {
	if d.Kind == infosys.DeltaRemoved {
		if _, ok := s.mirror[d.Name]; ok {
			delete(s.mirror, d.Name)
			for _, js := range s.jobs {
				js.remove(d.Name)
			}
		}
		return
	}
	ent := s.mirror[d.Name]
	if ent == nil {
		ent = &mirrorEntry{}
		s.mirror[d.Name] = ent
	}
	ent.rec = d.Rec
	ent.vals = s.schema.Flatten(d.Rec)
	ent.shard = shard
	for _, js := range s.jobs {
		js.update(s, ent)
	}
}

// repin rebuilds one shard of the mirror from a re-pinned snapshot
// (the log was compacted past the subscriber's position).
func (s *subscriber) repin(u *infosys.SubUpdate) {
	for name, ent := range s.mirror {
		if ent.shard == u.Shard {
			delete(s.mirror, name)
			for _, js := range s.jobs {
				js.remove(name)
			}
		}
	}
	snap := u.Snapshot
	for i := 0; i < snap.Len(); i++ {
		rec := snap.RecordShared(i)
		ent := &mirrorEntry{rec: rec, vals: s.schema.Flatten(rec), shard: u.Shard}
		s.mirror[rec.Name] = ent
		for _, js := range s.jobs {
			js.update(s, ent)
		}
	}
}

// rebuildSchema re-lays the whole mirror out against a new schema and
// rebuilds every standing tree (compiled predicates are cached per
// schema pointer, so trees built against the old pointer are stale).
func (s *subscriber) rebuildSchema(sc *infosys.Schema) {
	s.schema = sc
	for _, ent := range s.mirror {
		ent.vals = sc.Flatten(ent.rec)
	}
	for _, js := range s.jobs {
		js.rebuild(s)
	}
}

// state returns the standing tree for a job, building it from the
// mirror on the job's first pass and again on each pass after the job
// was placed and released it.
func (s *subscriber) state(job *jdl.Job) *jobState {
	js := s.jobs[job]
	if js == nil {
		js = &jobState{job: job, nodes: make(map[string]*standNode)}
		s.jobs[job] = js
		for _, ent := range s.mirror {
			js.update(s, ent)
		}
	}
	return js
}

// drop releases a job's standing state (placement or terminal event).
func (s *subscriber) drop(job *jdl.Job) { delete(s.jobs, job) }

// update re-evaluates one site against the job's predicates and
// repairs the tree: evict on requirement failure, re-rank (remove +
// re-insert) on preliminary-rank change, admit on first pass.
func (js *jobState) update(s *subscriber, ent *mirrorEntry) {
	req, rank := js.job.CompiledPredicates(s.schema)
	pass := true
	if req != nil {
		ok, err := req.EvalBool(ent.vals)
		pass = err == nil && ok
	}
	name := ent.rec.Name
	old := js.nodes[name]
	pen := 0.0
	if pass {
		// An unobtainable dataset excludes the site like a failing
		// Requirements clause, on every path.
		var pok bool
		pen, pok = s.b.dataPenalty(js.job, name)
		pass = pok
	}
	if !pass {
		if old != nil {
			js.removeNode(old)
		}
		return
	}
	prelim, rankErr := 0.0, false
	if rank != nil {
		if r, err := rank.EvalNumber(ent.vals); err != nil {
			rankErr = true
		} else {
			prelim = r
		}
	} else {
		prelim = float64(ent.rec.FreeCPUs)
	}
	prelim -= pen
	if old != nil {
		if old.prelim == prelim {
			old.rankErr, old.ent = rankErr, ent
			return
		}
		js.removeNode(old)
	}
	n := &standNode{name: name, prio: standPrio(name), prelim: prelim, rankErr: rankErr, ent: ent}
	js.root = insertNode(js.root, n)
	js.nodes[name] = n
}

func (js *jobState) remove(name string) {
	if old := js.nodes[name]; old != nil {
		js.removeNode(old)
	}
}

func (js *jobState) removeNode(n *standNode) {
	js.root = deleteNode(js.root, n.prelim, n.name)
	delete(js.nodes, n.name)
}

func (js *jobState) rebuild(s *subscriber) {
	js.root = nil
	for name := range js.nodes {
		delete(js.nodes, name)
	}
	for _, ent := range s.mirror {
		js.update(s, ent)
	}
}

// standPrio hashes a site name to its treap priority (FNV-1a, 64
// bit): no randomness, so the tree is a deterministic function of its
// membership alone.
func standPrio(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// standLess is the tree's key order: preliminary rank descending,
// then site name — the streamed heap's order with the noise tie-break
// deferred to extraction time (noise changes per pass; the tree does
// not).
func standLess(aPrelim float64, aName string, bPrelim float64, bName string) bool {
	if aPrelim != bPrelim {
		return aPrelim > bPrelim
	}
	return aName < bName
}

func rotateRight(t *standNode) *standNode {
	l := t.left
	t.left, l.right = l.right, t
	return l
}

func rotateLeft(t *standNode) *standNode {
	r := t.right
	t.right, r.left = r.left, t
	return r
}

func insertNode(t, n *standNode) *standNode {
	if t == nil {
		return n
	}
	if standLess(n.prelim, n.name, t.prelim, t.name) {
		t.left = insertNode(t.left, n)
		if t.left.prio > t.prio {
			t = rotateRight(t)
		}
	} else {
		t.right = insertNode(t.right, n)
		if t.right.prio > t.prio {
			t = rotateLeft(t)
		}
	}
	return t
}

func deleteNode(t *standNode, prelim float64, name string) *standNode {
	if t == nil {
		return nil
	}
	if t.prelim == prelim && t.name == name {
		switch {
		case t.left == nil:
			return t.right
		case t.right == nil:
			return t.left
		case t.left.prio > t.right.prio:
			t = rotateRight(t)
			t.right = deleteNode(t.right, prelim, name)
		default:
			t = rotateLeft(t)
			t.left = deleteNode(t.left, prelim, name)
		}
		return t
	}
	if standLess(prelim, name, t.prelim, t.name) {
		t.left = deleteNode(t.left, prelim, name)
	} else {
		t.right = deleteNode(t.right, prelim, name)
	}
	return t
}

// walkTree visits the tree in key order until fn returns false.
func walkTree(t *standNode, fn func(*standNode) bool) bool {
	if t == nil {
		return true
	}
	if !walkTree(t.left, fn) {
		return false
	}
	if !fn(t) {
		return false
	}
	return walkTree(t.right, fn)
}

// matchIncremental is the delta-subscription matchmaking pass:
// discovery is a poll (cost: slowest shard's answer), selection
// extracts the job's candidates from its standing tree and shares
// finishSelection's probe/rank pipeline with the other passes.
func (b *Broker) matchIncremental(h *Handle, excluded map[string]bool, cont func([]candidate)) {
	h.state = Matching
	s := b.sub
	job := h.request.Job

	dstart := b.sim.Now()
	h.polledAt = dstart
	h.deltas, h.repins = 0, 0
	s.poll(h, func() {
		h.matchEpoch = s.applied
		h.Phases.Discovery = b.sim.Since(dstart)

		// Catalog mutations (replica adds/drops) shift staging penalties
		// for every standing tree at once; rebuild against the new
		// version before extraction. Pure computation, order-independent.
		if c := b.cfg.Data; c != nil && b.cfg.DataAware {
			if v := c.Version(); v != s.dataVer {
				s.dataVer = v
				for _, js := range s.jobs {
					js.rebuild(s)
				}
			}
		}

		sstart := b.sim.Now()
		nonce := b.rng.Uint64()
		js := s.state(job)
		h.scanned = len(s.mirror)
		h.unavailable = 0
		kept := b.getTasks()
		if topk := b.cfg.TopK; topk > 0 {
			kept = s.extractTopK(b, js, nonce, topk, excluded, kept)
		} else {
			kept = s.extractAll(b, js, nonce, excluded, kept)
		}
		h.peak = len(kept)
		// Pre-probe unavailable accounting, oracle-style: the snapshot
		// pass counts every quarantined registry record it enumerates.
		// The walk above never visits requirement-failing sites, so count
		// from the health map instead (pure reads — no half-open claims —
		// so map order cannot matter).
		if len(b.health) > 0 {
			now := b.sim.Now()
			for name, hl := range b.health {
				if excluded[name] || !now.Before(hl.quarantinedUntil) {
					continue
				}
				if _, ok := s.mirror[name]; ok {
					h.unavailable++
				}
			}
		}
		b.finishSelection(h, kept, func(cands []candidate) {
			b.putTasks(kept)
			h.Phases.Selection += b.sim.Since(sstart)
			cont(cands)
		})
	})
}

// extractAll collects every live tree entry (TopK disabled) — the
// whole-snapshot pass's kept set, including Rank-error sites, which
// finishSelection excludes after probing exactly as the oracle does.
func (s *subscriber) extractAll(b *Broker, js *jobState, nonce uint64, excluded map[string]bool, kept []probeTask) []probeTask {
	walkTree(js.root, func(n *standNode) bool {
		name := n.name
		if excluded[name] || b.siteExcluded(name) {
			return true
		}
		st, ok := b.sites[name]
		if !ok {
			return true
		}
		p := probeTask{st: st, vals: n.ent.vals, schema: s.schema, prelim: n.prelim}
		if !b.cfg.Deterministic {
			p.noise = selectionNoise(nonce, name)
		}
		kept = append(kept, p)
		return true
	})
	return kept
}

// extractTopK walks the tree best-first and keeps the K best by
// (prelim desc, noise asc, name asc) — the streamed heap's order. The
// walk yields (prelim desc, name asc), so whole tie groups are taken
// while they fit and the boundary group is resolved by (noise, name);
// the kept set equals the heap's and the walk touches O(K + boundary
// group) nodes, independent of grid size.
func (s *subscriber) extractTopK(b *Broker, js *jobState, nonce uint64, topk int, excluded map[string]bool, kept []probeTask) []probeTask {
	group := s.group[:0]
	groupPrelim := 0.0
	flush := func() bool { // false = kept is full, stop walking
		if len(group) == 0 {
			return true
		}
		if room := topk - len(kept); len(group) <= room {
			kept = append(kept, group...)
		} else {
			sort.Slice(group, func(i, j int) bool {
				if group[i].noise != group[j].noise {
					return group[i].noise < group[j].noise
				}
				return group[i].st.Name() < group[j].st.Name()
			})
			kept = append(kept, group[:room]...)
		}
		group = group[:0]
		return len(kept) < topk
	}
	walkTree(js.root, func(n *standNode) bool {
		if n.rankErr {
			return true // streamed pass drops Rank errors pre-heap
		}
		if len(group) > 0 && n.prelim != groupPrelim {
			if !flush() {
				return false
			}
		}
		name := n.name
		if excluded[name] || b.siteExcluded(name) {
			return true
		}
		st, ok := b.sites[name]
		if !ok {
			return true
		}
		p := probeTask{st: st, vals: n.ent.vals, schema: s.schema, prelim: n.prelim}
		if !b.cfg.Deterministic {
			p.noise = selectionNoise(nonce, name)
		}
		groupPrelim = n.prelim
		group = append(group, p)
		return true
	})
	flush()
	s.group = group[:0]
	return kept
}
