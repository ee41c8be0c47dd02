package broker

// Callback-engine scheduling flows. Every function in this file is a
// 1:1 continuation-passing transform of its cooperative twin in
// run.go / matchmaking.go / incremental.go / dataaware.go, under the
// event-mapping rules that make the two engines byte-identical:
//
//   - sim.Go(fn)        ↔ sim.Post(fn)            one event at +0
//   - sim.Sleep(d); X   ↔ sim.AfterFunc(d, X)     one event at +d
//   - t.Wait(); X       ↔ t.WaitThen(X)           one event per waiter
//   - t.OnFire(fn)      ↔ t.OnFire(fn)            inline, no event
//
// Both transforms issue their schedule calls at the same execution
// points, so the simulator allocates identical (timestamp, seq) pairs
// and dispatches identically — the equivalence suite
// (engineequiv_test.go and internal/experiments) byte-compares the
// resulting traces. When editing a flow here, edit the blocking twin
// in lockstep (and vice versa); the twins are listed next to each
// function.
//
// Only default-body jobs route here (startRoute / startBatchRun):
// custom Body closures may block, which a callback cannot, so those
// jobs stay on the cooperative engine even when the sim runs in
// callback mode. Because each job's event pattern is engine-invariant,
// mixed workloads remain deterministic.

import (
	"fmt"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/glidein"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
	"crossbroker/internal/vmslot"
)

// immediateDirectory is the split window onto the information system
// the callback engine needs: query latency charged as one timer event,
// then the read through the Immediate variant — the same single event
// the blocking Snapshot/Discover's Sleep schedules. *infosys.Service
// and *infosys.View both implement it.
type immediateDirectory interface {
	Directory
	QueryLatency() time.Duration
	SnapshotImmediate() *infosys.Snapshot
	DiscoverImmediate(pageSize int) *infosys.Cursor
}

// cbReady reports whether the callback engine can carry a scheduling
// flow: the sim must run in callback mode and the information system
// (when one is configured) must expose the Immediate read variants.
// Test doubles implementing only Directory fall back to the
// cooperative engine.
func (b *Broker) cbReady() bool {
	if !b.sim.Callback() {
		return false
	}
	if b.cfg.Info == nil {
		return true
	}
	_, ok := b.cfg.Info.(immediateDirectory)
	return ok
}

// routeCB is route's callback twin.
func (b *Broker) routeCB(h *Handle) {
	job := h.request.Job
	switch {
	case !job.Interactive:
		b.runBatchCB(h)
	case job.Access == jdl.SharedAccess:
		b.runInteractiveSharedCB(h)
	default:
		b.runInteractiveExclusiveCB(h)
	}
}

// startBatchRun launches (or re-dispatches) a batch scheduling pass on
// the configured engine — one event at +0 either way.
func (b *Broker) startBatchRun(h *Handle) {
	if b.cbReady() && h.request.Body == nil {
		b.sim.Post(func() { b.runBatchCB(h) })
		return
	}
	b.sim.Go(func() { b.runBatch(h) })
}

// waitTriggerThen is waitTrigger's callback twin: cont receives
// whether t fired before the deadline.
func (b *Broker) waitTriggerThen(t *simclock.Trigger, d time.Duration, cont func(fired bool)) {
	w := b.sim.NewTrigger()
	timer := b.sim.AfterFunc(d, w.Fire)
	t.OnFire(w.Fire)
	w.WaitThen(func() {
		timer.Stop()
		cont(t.Fired())
	})
}

// stageDataCB is stageData's callback twin.
func (b *Broker) stageDataCB(h *Handle, siteName string, cont func()) {
	c := b.cfg.Data
	if c == nil || len(h.request.Job.InputData) == 0 {
		cont()
		return
	}
	d, ok := c.StagingTime(siteName, h.request.Job.InputData)
	if !ok || d <= 0 {
		cont()
		return
	}
	b.sim.AfterFunc(d, func() {
		b.cfg.Trace.Emit(trace.Event{Kind: trace.DataStaged, Job: h.ID, Site: siteName, Dur: d, Attempt: h.resub})
		cont()
	})
}

// ---------------------------------------------------------------------
// Matchmaking (matchmaking.go / incremental.go twins).
// ---------------------------------------------------------------------

// matchPassCB is matchPass's callback twin.
func (b *Broker) matchPassCB(h *Handle, excluded map[string]bool, cont func([]candidate)) {
	if b.cfg.Incremental {
		b.matchIncrementalCB(h, excluded, cont)
		return
	}
	if b.cfg.PageSize < 0 {
		b.discoverCB(h, func(snap *infosys.Snapshot) {
			b.selectionCB(h, snap, excluded, cont)
		})
		return
	}
	b.matchStreamCB(h, excluded, cont)
}

// discoverCB is discover's callback twin: the query latency is one
// timer event, then the snapshot is read at the post-latency instant —
// exactly when the blocking Snapshot returns.
func (b *Broker) discoverCB(h *Handle, cont func(*infosys.Snapshot)) {
	h.state = Matching
	start := b.sim.Now()
	finish := func(snap *infosys.Snapshot) {
		h.Phases.Discovery = b.sim.Since(start)
		h.scanned = snap.Len()
		cont(snap)
	}
	if b.cfg.Info != nil {
		im := b.cfg.Info.(immediateDirectory)
		b.sim.AfterFunc(im.QueryLatency(), func() { finish(im.SnapshotImmediate()) })
		return
	}
	finish(b.localSnapshot())
}

// selectionCB is selection's callback twin. Phase 1 (requirements
// filtering) is pure computation and shared verbatim; only the probe
// pipeline is asynchronous.
func (b *Broker) selectionCB(h *Handle, snap *infosys.Snapshot, excluded map[string]bool, cont func([]candidate)) {
	start := b.sim.Now()

	job := h.request.Job
	req, _ := job.CompiledPredicates(snap.Schema())
	nonce := b.rng.Uint64()

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
	b.finishSelectionCB(h, kept, func(cands []candidate) {
		h.Phases.Selection += b.sim.Since(start)
		cont(cands)
	})
}

// matchStreamCB is matchStream's callback twin. The page loop is pure
// computation shared verbatim; discovery latency and the probe
// pipeline are the asynchronous parts.
func (b *Broker) matchStreamCB(h *Handle, excluded map[string]bool, cont func([]candidate)) {
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
		b.finishSelectionCB(h, []probeTask(keep), func(cands []candidate) {
			b.putTasks([]probeTask(keep))
			h.Phases.Selection += b.sim.Since(sstart)
			cont(cands)
		})
	}
	if b.cfg.Info != nil {
		im := b.cfg.Info.(immediateDirectory)
		b.sim.AfterFunc(im.QueryLatency(), func() { withCursor(im.DiscoverImmediate(b.cfg.PageSize)) })
		return
	}
	withCursor(b.localSnapshot().Cursor(b.cfg.PageSize))
}

// pollCB is subscriber.poll's callback twin: the serialization loop
// becomes a re-entrant WaitThen, the per-shard link waits become one
// posted event plus one timer event per shard — the spawn/sleep pair
// the cooperative fan-out schedules.
func (s *subscriber) pollCB(h *Handle, cont func()) {
	if s.polling {
		w := s.b.sim.NewTrigger()
		s.pollWaiters = append(s.pollWaiters, w)
		w.WaitThen(func() { s.pollCB(h, cont) })
		return
	}
	s.polling = true
	finish := func() {
		s.polling = false
		ws := s.pollWaiters
		s.pollWaiters = nil
		for _, w := range ws {
			w.Fire()
		}
		cont()
	}

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
		finish()
	}
	if maxCost > 0 {
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
		return
	}
	applyAll()
}

// matchIncrementalCB is matchIncremental's callback twin: only the
// poll waits; extraction and accounting are pure and shared verbatim.
func (b *Broker) matchIncrementalCB(h *Handle, excluded map[string]bool, cont func([]candidate)) {
	h.state = Matching
	s := b.sub
	job := h.request.Job

	dstart := b.sim.Now()
	h.polledAt = dstart
	h.deltas, h.repins = 0, 0
	s.pollCB(h, func() {
		h.matchEpoch = s.applied
		h.Phases.Discovery = b.sim.Since(dstart)

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
		b.finishSelectionCB(h, kept, func(cands []candidate) {
			b.putTasks(kept)
			h.Phases.Selection += b.sim.Since(sstart)
			cont(cands)
		})
	})
}

// finishSelectionCB is finishSelection's callback twin: the sort and
// the post-probe ranking are pure and shared verbatim; only the probe
// fan-out waits.
func (b *Broker) finishSelectionCB(h *Handle, kept []probeTask, cont func([]candidate)) {
	sortTasksByName(kept)
	b.probeSitesCB(kept, func() {
		cont(b.rankProbed(h, kept))
	})
}

// probeSitesCB is probeSites's callback twin. Serial probing is a
// continuation chain (one timer event per probe, like the serial
// Sleeps); width-wide probing posts one event per worker and lets each
// worker chain through the shared next counter, exactly mirroring the
// cooperative worker processes.
func (b *Broker) probeSitesCB(tasks []probeTask, cont func()) {
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

// SelectionPassStatsAsync is SelectionPassStats for the callback
// engine: it may be called from any context and delivers the pass's
// instrumentation to cont when the pass completes.
func (b *Broker) SelectionPassStatsAsync(job *jdl.Job, cont func(PassStats)) {
	h := &Handle{request: Request{Job: job}}
	b.matchPassCB(h, nil, func(cands []candidate) {
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

// ---------------------------------------------------------------------
// Scenario 1: sequential/parallel batch jobs (runBatch twins).
// ---------------------------------------------------------------------

// runBatchCB is runBatch's callback twin.
func (b *Broker) runBatchCB(h *Handle) {
	if h.state == Done || h.state == Failed {
		return
	}
	if h.abort.Fired() {
		b.fail(h, h.abortErr)
		return
	}
	job := h.request.Job
	b.matchPassCB(h, nil, func(cands []candidate) {
		if h.scanned == 0 {
			// Empty registry: nothing to match, now or later.
			b.fail(h, ErrNoMatch)
			return
		}
		if len(cands) == 0 {
			if h.unavailable > 0 {
				h.lastErr = ErrNoResources
				h.state = Pending
				b.scheduleRetry(h)
				return
			}
			b.fail(h, ErrNoMatch)
			return
		}

		// Prefer a site with an idle machine; otherwise one with queue
		// space; otherwise hold the job in the CrossBroker (arrow 2).
		var chosen *candidate
		for i := range cands {
			if cands[i].free >= job.NodeNumber {
				chosen = &cands[i]
				break
			}
		}
		if chosen == nil {
			for i := range cands {
				if cands[i].queued < cands[i].site.QueueSlots() {
					chosen = &cands[i]
					break
				}
			}
		}
		if chosen == nil {
			if !b.admissionOK(h.request.User) {
				b.fail(h, ErrRejected)
				return
			}
			h.state = Pending
			b.scheduleRetry(h)
			return
		}

		st := chosen.site
		b.emitMatched(h, b.matchedEvent(h, st.Name(), chosen.rank))
		b.lease(h, st.Name(), job.NodeNumber)
		h.state = Submitted
		h.site = st.Name()
		subStart := b.sim.Now()
		h.FirstOutput.OnFire(func() { h.Phases.Submission = b.sim.Since(subStart) })
		b.stageDataCB(h, st.Name(), func() {
			if job.NodeNumber > 1 {
				b.runExclusiveOnCB(h, st)
				return
			}

			payload := &glidein.BatchPayload{ID: h.ID, Owner: h.request.User, Work: h.request.CPU}
			glidein.LaunchAsync(b.sim, st, payload, 0,
				glidein.Options{Degree: b.cfg.AgentDegree, Trace: b.cfg.Trace,
					TraceJob: h.ID, TraceAttempt: h.resub},
				func(agent *glidein.Agent, bh *batch.Handle, err error) {
					if err != nil {
						b.unlease(h, st.Name(), 1)
						if retryableSubmitErr(err) {
							b.noteSiteFailure(st.Name())
							h.lastErr = err
							b.noteResub(h, st.Name(), "agent launch failed")
							h.state = Pending
							b.scheduleRetry(h)
							return
						}
						b.fail(h, fmt.Errorf("broker: agent launch on %s: %w", st.Name(), err))
						return
					}
					b.noteSiteSuccess(st.Name())
					b.wireAgent(agent, st)

					bh.Started.OnFire(func() {
						b.unlease(h, st.Name(), 1)
						b.account(h, 1)
						h.state = Running
						b.cfg.Trace.Emit(trace.Event{Kind: trace.Started, Job: h.ID, Site: st.Name(), Attempt: h.resub})
						// First output of the payload: startup then transfer.
						b.sim.Post(func() {
							b.sim.AfterFunc(st.Costs().JobStartup+st.Network().TransferTime(defaultFirstOutputBytes),
								h.FirstOutput.Fire)
						})
					})

					w := b.sim.NewTrigger()
					agent.BatchDone().OnFire(w.Fire)
					agent.Released().OnFire(w.Fire)
					bh.Done.OnFire(w.Fire)
					h.abort.OnFire(w.Fire)
					w.WaitThen(func() {
						if agent.BatchDone().Fired() {
							b.release(h)
							b.finish(h)
							return
						}
						if !bh.Started.Fired() {
							b.unlease(h, st.Name(), 1) // reservation for a job that never ran
						}
						if h.abort.Fired() {
							st.Queue().Kill(bh.ID())
							b.release(h)
							b.fail(h, h.abortErr)
							return
						}
						// Evicted or lost.
						b.release(h)
						h.lastErr = fmt.Errorf("%w: payload on %s unfinished", ErrAgentLost, st.Name())
						b.noteResub(h, st.Name(), "agent lost")
						h.state = Pending
						b.scheduleRetry(h)
						b.kickDispatch()
					})
				})
		})
	})
}

// runExclusiveOnCB is runExclusiveOn's callback twin (parallel batch
// jobs through the gatekeeper).
func (b *Broker) runExclusiveOnCB(h *Handle, st *site.Site) {
	job := h.request.Job
	bodyDone := b.sim.NewTrigger()
	killed := b.sim.NewTrigger()
	req := batch.Request{
		ID:    h.ID,
		Owner: h.request.User,
		Nodes: job.NodeNumber,
		RunCB: b.exclusiveBodyCB(h, st, bodyDone, killed),
	}
	st.SubmitAsync(req, site.SubmitOptions{TraceJob: h.ID, TraceAttempt: h.resub}, func(bh *batch.Handle, err error) {
		b.unlease(h, st.Name(), job.NodeNumber)
		if err != nil {
			if retryableSubmitErr(err) {
				b.noteSiteFailure(st.Name())
				h.lastErr = err
				b.noteResub(h, st.Name(), "submit failed")
				h.state = Pending
				b.scheduleRetry(h)
				return
			}
			b.fail(h, err)
			return
		}
		b.noteSiteSuccess(st.Name())
		bh.Started.OnFire(func() {
			h.state = Running
			b.cfg.Trace.Emit(trace.Event{Kind: trace.Started, Job: h.ID, Site: st.Name(), Attempt: h.resub})
			b.account(h, job.NodeNumber)
		})
		h.site = st.Name()

		// bh.Done without bodyDone means the LRM dropped the job (crash
		// while queued or running) — its body may never have run.
		w := b.sim.NewTrigger()
		bodyDone.OnFire(w.Fire)
		killed.OnFire(w.Fire)
		bh.Done.OnFire(w.Fire)
		h.abort.OnFire(w.Fire)
		w.WaitThen(func() {
			// bodyDone also fires when the body stopped because it was
			// killed, so the failure outcomes must be checked first.
			switch {
			case h.abort.Fired():
				st.Queue().Kill(bh.ID())
				b.release(h)
				b.fail(h, h.abortErr)
			case killed.Fired(), !bodyDone.Fired():
				b.release(h)
				h.lastErr = fmt.Errorf("%w: %s died running %s", ErrSiteLost, st.Name(), h.ID)
				b.noteResub(h, st.Name(), "site lost")
				h.state = Pending
				b.scheduleRetry(h)
			default:
				b.release(h)
				b.finish(h)
			}
		})
	})
}

// exclusiveBodyCB is exclusiveBody's callback twin, in the LRM's RunCB
// shape: fin hands control back to the queue (the return of the
// blocking body).
func (b *Broker) exclusiveBodyCB(h *Handle, st *site.Site, bodyDone interface{ Fire() }, killed *simclock.Trigger) func(*batch.ExecCtx, func()) {
	return func(ctx *batch.ExecCtx, fin func()) {
		if killed != nil {
			ctx.Killed.OnFire(killed.Fire)
		}
		slots := make([]*vmslot.Slot, len(ctx.Nodes))
		for i, n := range ctx.Nodes {
			slots[i] = n.CPU.NewSlot(h.ID, interactiveTickets)
		}
		b.sim.AfterFunc(st.Costs().JobStartup, func() {
			rc := b.makeRunContext(h, st, slots)
			ctx.Killed.OnFire(rc.Killed.Fire)
			h.abort.OnFire(rc.Killed.Fire)
			b.runBodyCB(h, st, rc, func() {
				for _, s := range slots {
					s.Close()
				}
				bodyDone.Fire()
				fin()
			})
		})
	}
}

// runBodyCB is runBody's callback twin for the default body (custom
// bodies never reach the callback engine). The blocking rc.Output /
// rc.Input closures are left unused; the first-output transfer is the
// same single timer event rc.Output's Sleep schedules.
func (b *Broker) runBodyCB(h *Handle, st *site.Site, rc *RunContext, cont func()) {
	b.sim.AfterFunc(st.Network().TransferTime(defaultFirstOutputBytes), func() {
		h.FirstOutput.Fire()
		if h.request.CPU <= 0 {
			cont()
			return
		}
		done := b.sim.NewTrigger()
		remaining := len(rc.Slots)
		for _, s := range rc.Slots {
			t := s.Start(h.request.CPU)
			t.OnFire(func() {
				remaining--
				if remaining == 0 {
					done.Fire()
				}
			})
		}
		if rc.Killed == nil {
			done.WaitThen(cont)
			return
		}
		w := b.sim.NewTrigger()
		done.OnFire(w.Fire)
		rc.Killed.OnFire(w.Fire)
		w.WaitThen(cont)
	})
}

// ---------------------------------------------------------------------
// Scenario 2: interactive jobs in exclusive mode (runInteractiveExclusive
// twins).
// ---------------------------------------------------------------------

// runInteractiveExclusiveCB is runInteractiveExclusive's callback twin:
// the candidate loop becomes a self-continuing attempt chain.
func (b *Broker) runInteractiveExclusiveCB(h *Handle) {
	job := h.request.Job
	b.matchPassCB(h, nil, func(cands []candidate) {
		if len(cands) == 0 {
			b.fail(h, ErrNoMatch)
			return
		}

		subStart := b.sim.Now()
		h.FirstOutput.OnFire(func() { h.Phases.Submission = b.sim.Since(subStart) })

		excluded := make(map[string]bool)
		anyFree := false
		var loop func(attempt int)
		loop = func(attempt int) {
			if attempt < len(cands) {
				if h.abort.Fired() {
					b.fail(h, h.abortErr)
					return
				}
				if b.cfg.MaxResubmits > 0 && h.resub > b.cfg.MaxResubmits {
					b.failResubmits(h)
					return
				}
				var chosen *candidate
				for i := range cands {
					if !excluded[cands[i].site.Name()] && cands[i].free >= job.NodeNumber {
						chosen = &cands[i]
						break
					}
				}
				if chosen != nil {
					anyFree = true
					b.emitMatched(h, b.matchedEvent(h, chosen.site.Name(), chosen.rank))
					b.runExclusiveAttemptCB(h, chosen.site, func(terminal bool) {
						if terminal {
							return
						}
						excluded[chosen.site.Name()] = true
						loop(attempt + 1)
					})
					return
				}
			}
			if h.abort.Fired() {
				b.fail(h, h.abortErr)
				return
			}
			if !anyFree && !b.admissionOK(h.request.User) {
				b.fail(h, ErrRejected)
				return
			}
			b.fail(h, ErrNoResources)
		}
		loop(0)
	})
}

// runExclusiveAttemptCB is runExclusiveAttempt's callback twin; cont
// receives the terminal flag (the blocking twin's return value). The
// deferred unlease becomes the done wrapper, preserving its
// after-everything ordering.
func (b *Broker) runExclusiveAttemptCB(h *Handle, st *site.Site, cont func(terminal bool)) {
	job := h.request.Job
	b.lease(h, st.Name(), job.NodeNumber)
	done := func(terminal bool) {
		b.unlease(h, st.Name(), job.NodeNumber)
		cont(terminal)
	}
	h.state = Submitted
	b.stageDataCB(h, st.Name(), func() {
		bodyDone := b.sim.NewTrigger()
		killed := b.sim.NewTrigger()
		req := batch.Request{
			ID:       h.ID + fmt.Sprintf(".%d", h.resub),
			Owner:    h.request.User,
			Nodes:    job.NodeNumber,
			Priority: 10, // interactive jobs ahead of local batch work
			RunCB:    b.exclusiveBodyCB(h, st, bodyDone, killed),
		}
		st.SubmitAsync(req, site.SubmitOptions{TraceJob: h.ID, TraceAttempt: h.resub}, func(bh *batch.Handle, err error) {
			if err != nil {
				b.noteSiteFailure(st.Name())
				h.lastErr = err
				b.noteResub(h, st.Name(), "submit failed")
				done(false)
				return
			}
			b.noteSiteSuccess(st.Name())
			// On-line scheduling: kill-and-resubmit if the job sits in a
			// remote queue instead of starting immediately.
			b.waitTriggerThen(bh.Started, b.cfg.QueueTimeout, func(started bool) {
				if !started {
					st.Queue().Kill(bh.ID())
					b.noteResub(h, st.Name(), "queue timeout")
					done(false)
					return
				}
				h.state = Running
				h.site = st.Name()
				b.cfg.Trace.Emit(trace.Event{Kind: trace.Started, Job: h.ID, Site: st.Name(), Attempt: h.resub})
				b.account(h, job.NodeNumber)

				w := b.sim.NewTrigger()
				bodyDone.OnFire(w.Fire)
				killed.OnFire(w.Fire)
				h.abort.OnFire(w.Fire)
				w.WaitThen(func() {
					// bodyDone also fires when the body stopped because it
					// was killed, so the failure outcomes are checked first.
					switch {
					case h.abort.Fired():
						st.Queue().Kill(bh.ID())
						b.release(h)
						b.fail(h, h.abortErr)
						done(true)
					case killed.Fired():
						b.release(h)
						h.lastErr = fmt.Errorf("%w: %s died running %s", ErrSiteLost, st.Name(), h.ID)
						b.noteResub(h, st.Name(), "site lost")
						done(false)
					default:
						b.release(h)
						b.finish(h)
						done(true)
					}
				})
			})
		})
	})
}

// ---------------------------------------------------------------------
// Scenario 3: interactive jobs in shared mode (runInteractiveShared
// twins).
// ---------------------------------------------------------------------

// runInteractiveSharedCB is runInteractiveShared's callback twin: the
// infinite attempt loop and the two nested shortfall loops become
// continuation chains.
func (b *Broker) runInteractiveSharedCB(h *Handle) {
	job := h.request.Job
	first := true
	var attempt func()
	attempt = func() {
		if h.abort.Fired() {
			b.fail(h, h.abortErr)
			return
		}
		// Combined discovery+selection over the local registry.
		start := b.sim.Now()
		b.sim.AfterFunc(b.cfg.AgentRegistryCost, func() {
			free := b.freeAgentsMatching(job, job.NodeNumber)
			if first {
				first = false
				h.Phases.Selection = b.sim.Since(start)
				subStart := b.sim.Now()
				h.FirstOutput.OnFire(func() { h.Phases.Submission = b.sim.Since(subStart) })
			}

			need := job.NodeNumber
			var chosen []*glidein.Agent
			for _, a := range free {
				for k := 0; k < a.FreeSlots() && len(chosen) < need; k++ {
					chosen = append(chosen, a)
				}
				if len(chosen) == need {
					break
				}
			}

			place := func() {
				if len(chosen) < need {
					if !b.admissionOK(h.request.User) {
						b.fail(h, ErrRejected)
						return
					}
					b.fail(h, ErrNoResources)
					return
				}
				b.placeOnAgentsCB(h, chosen, func(terminal bool) {
					if terminal {
						return
					}
					// A hosting agent died mid-run: kill-and-resubmit,
					// bounded by the resubmission budget.
					if b.cfg.MaxResubmits > 0 && h.resub > b.cfg.MaxResubmits {
						b.failResubmits(h)
						return
					}
					attempt()
				})
			}

			if len(chosen) >= need {
				place()
				return
			}
			// Fill the shortfall with fresh agents on idle machines, "in
			// a similar way to the case of a batch job".
			b.matchPassCB(h, nil, func(cands []candidate) {
				var fillSite func(i int)
				var fillAgent func(i int)
				endSite := func(i int) {
					if len(chosen) == need {
						place()
						return
					}
					fillSite(i + 1)
				}
				fillSite = func(i int) {
					if i >= len(cands) {
						place()
						return
					}
					fillAgent(i)
				}
				fillAgent = func(i int) {
					if !(len(chosen) < need && cands[i].free > 0) {
						endSite(i)
						return
					}
					// No TraceJob: the agent's 2PC is labeled by its own
					// queue ID — several launches may serve one attempt.
					glidein.LaunchAsync(b.sim, cands[i].site, nil, 10,
						glidein.Options{Degree: b.cfg.AgentDegree, Trace: b.cfg.Trace},
						func(agent *glidein.Agent, bh *batch.Handle, err error) {
							if err != nil {
								if retryableSubmitErr(err) {
									b.noteSiteFailure(cands[i].site.Name())
								}
								endSite(i)
								return
							}
							b.wireAgent(agent, cands[i].site)
							b.waitTriggerThen(agent.Ready(), b.cfg.QueueTimeout, func(ready bool) {
								if !ready {
									cands[i].site.Queue().Kill(bh.ID())
									endSite(i)
									return
								}
								cands[i].free--
								for k := 0; k < agent.FreeSlots() && len(chosen) < need; k++ {
									chosen = append(chosen, agent)
								}
								fillAgent(i)
							})
						})
				}
				fillSite(0)
			})
		})
	}
	attempt()
}

// placeOnAgentsCB is placeOnAgents's callback twin; cont receives the
// terminal flag (the blocking twin's return value).
func (b *Broker) placeOnAgentsCB(h *Handle, agents []*glidein.Agent, cont func(terminal bool)) {
	job := h.request.Job
	// A previously free agent may have died and been reaped from the
	// registry while fresh agents were launched; treat that like a
	// mid-run death.
	for _, a := range agents {
		if b.agentSites[a] == nil {
			cont(false)
			return
		}
	}
	st := b.agentSites[agents[0]]
	h.site = st.Name()
	if len(agents) > 1 {
		h.site = "agents"
	}
	h.shared = true
	b.emitMatched(h, trace.Event{Kind: trace.Matched, Job: h.ID, Site: h.site, N: len(agents), Attempt: h.resub})

	// Catalog datasets move first, then the direct agent-channel
	// dispatch (gatekeeper, GRAM and the local queue skipped entirely).
	b.stageDataCB(h, st.Name(), func() {
		b.sim.AfterFunc(st.Costs().Stage+st.Network().RTT()+st.Costs().VMDispatch, func() {
			slots := make([]*vmslot.Slot, len(agents))
			jobDone := b.sim.NewTrigger() // body finished; placeholders release
			var doneTs []*simclock.Trigger
			placed := 0
			allPlaced := b.sim.NewTrigger()

			for i, a := range agents {
				i := i
				done, err := a.StartInteractive(glidein.InteractiveJob{
					ID:              fmt.Sprintf("%s#%d.%d", h.ID, i, h.resub),
					Owner:           h.request.User,
					PerformanceLoss: job.PerformanceLoss,
					RunCB: func(ctx *glidein.InteractiveContext, fin func()) {
						slots[i] = ctx.Slot
						placed++
						if placed == len(agents) {
							allPlaced.Fire()
						}
						jobDone.WaitThen(fin)
					},
				})
				if err != nil {
					// Registry race: someone took the VM. Treat as failure.
					jobDone.Fire()
					b.fail(h, ErrNoResources)
					cont(true)
					return
				}
				doneTs = append(doneTs, done)
			}

			allPlaced.WaitThen(func() {
				h.state = Running
				b.cfg.Trace.Emit(trace.Event{Kind: trace.Started, Job: h.ID, Site: h.site, Attempt: h.resub})
				b.account(h, len(agents))

				// Heartbeat monitoring: a hosting agent's death is
				// noticed one AgentHeartbeat after the loss.
				lost := b.sim.NewTrigger()
				seen := make(map[*glidein.Agent]bool, len(agents))
				for _, a := range agents {
					if seen[a] {
						continue
					}
					seen[a] = true
					a.Released().OnFire(func() { b.sim.AfterFunc(b.cfg.AgentHeartbeat, lost.Fire) })
				}

				bodyEnd := b.sim.NewTrigger()
				b.sim.Post(func() {
					b.sim.AfterFunc(st.Costs().JobStartup, func() {
						rc := b.makeRunContext(h, st, slots)
						lost.OnFire(rc.Killed.Fire)
						h.abort.OnFire(rc.Killed.Fire)
						b.runBodyCB(h, st, rc, bodyEnd.Fire)
					})
				})

				w := b.sim.NewTrigger()
				bodyEnd.OnFire(w.Fire)
				lost.OnFire(w.Fire)
				h.abort.OnFire(w.Fire)
				w.WaitThen(func() {
					jobDone.Fire() // unwind the VM placeholders on surviving agents
					// bodyEnd also fires when the body stopped because its
					// allocation was lost or aborted, so the failure
					// outcomes are checked first.
					switch {
					case h.abort.Fired():
						b.release(h)
						b.fail(h, h.abortErr)
						cont(true)
					case lost.Fired():
						b.cfg.Trace.Emit(trace.Event{Kind: trace.HeartbeatLost, Job: h.ID, Site: h.site, Attempt: h.resub})
						b.release(h)
						h.lastErr = fmt.Errorf("%w while running %s", ErrAgentLost, h.ID)
						b.noteResub(h, h.site, "agent lost")
						cont(false)
					default:
						var waitDone func(k int)
						waitDone = func(k int) {
							if k == len(doneTs) {
								b.release(h)
								b.finish(h)
								cont(true)
								return
							}
							doneTs[k].WaitThen(func() { waitDone(k + 1) })
						}
						waitDone(0)
					}
				})
			})
		})
	})
}
