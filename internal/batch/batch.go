// Package batch simulates the local resource manager (LRM) present at
// every grid site — the PBS or Condor queue of Section 3 that has
// "full control over local resources and jobs running on them" and
// whose queue-wait behaviour motivates the paper's multi-programming
// mechanism.
//
// The model is a space-shared FCFS queue (with optional priorities)
// over a fixed pool of worker nodes, running in virtual time. Each
// worker node owns a vmslot.Machine so that jobs, glide-in agents and
// virtual machine slots can consume simulated CPU on it. The broker
// interacts with the queue only through Submit/Kill and the
// free-nodes/queue-length introspection the gatekeeper publishes —
// the same interface surface Globus exposed over the real LRMs.
package batch

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"crossbroker/internal/simclock"
	"crossbroker/internal/vmslot"
)

// State is a job's lifecycle state in the local queue.
type State int

// Job states, in lifecycle order.
const (
	Pending State = iota
	Running
	Completed
	Killed
)

// String names the state.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Killed:
		return "killed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Node is one worker node managed by the queue.
type Node struct {
	// Name identifies the node within its site.
	Name string
	// CPU is the node's processor, on which jobs and VM slots run.
	CPU *vmslot.Machine

	holder *job
}

// Busy reports whether a job currently holds the node.
func (n *Node) Busy() bool { return n.holder != nil }

// ExecCtx is passed to a job's body when it starts.
type ExecCtx struct {
	// Nodes are the worker nodes allocated to the job.
	Nodes []*Node
	// Killed fires when the LRM kills the job; long-running bodies
	// must watch it and return promptly.
	Killed *simclock.Trigger

	sim *simclock.Sim
}

// Sim returns the simulation clock the job runs on.
func (c *ExecCtx) Sim() *simclock.Sim { return c.sim }

// SleepOrKilled suspends the job body for d, returning early — and
// reporting true — if the job is killed first.
func (c *ExecCtx) SleepOrKilled(d time.Duration) (killed bool) {
	w := c.sim.NewTrigger()
	t := c.sim.AfterFunc(d, w.Fire)
	c.Killed.OnFire(w.Fire)
	w.Wait()
	t.Stop()
	return c.Killed.Fired()
}

// Request describes a job submitted to the local queue.
type Request struct {
	// ID is the job identifier; unique per queue.
	ID string
	// Owner is the submitting identity (accounting).
	Owner string
	// Nodes is the number of worker nodes required (>= 1).
	Nodes int
	// Priority orders the pending queue (higher first, FCFS within a
	// priority level). Local jobs default to 0.
	Priority int
	// Run is a blocking job body, started as a simulation process when
	// nodes are allocated. The job completes when Run returns.
	Run func(ctx *ExecCtx)
	// RunCB is a run-to-completion job body: instead of blocking, it
	// wires its own continuations and calls done exactly once when the
	// job completes. When set, the LRM dispatches it in a plain event
	// (no process) and Run is ignored.
	RunCB func(ctx *ExecCtx, done func())
}

// Handle tracks a submitted job.
type Handle struct {
	sim  *simclock.Sim
	req  Request
	st   State
	exec *ExecCtx
	// Done fires when the job reaches Completed or Killed.
	Done *simclock.Trigger
	// Started fires when the job begins execution.
	Started *simclock.Trigger

	submitAt time.Time
	startAt  time.Time
	seq      int
}

// ID returns the job identifier.
func (h *Handle) ID() string { return h.req.ID }

// State returns the job's current state.
func (h *Handle) State() State { return h.st }

// Owner returns the submitting identity.
func (h *Handle) Owner() string { return h.req.Owner }

// QueueWait returns how long the job waited before starting; for jobs
// still pending it is the wait so far.
func (h *Handle) QueueWait() time.Duration {
	if h.st == Pending {
		return h.sim.Since(h.submitAt)
	}
	return h.startAt.Sub(h.submitAt)
}

// Queue is the site's local resource manager.
type Queue struct {
	sim   *simclock.Sim
	name  string
	nodes []*Node
	nfree int // nodes with no holder, maintained by start/finish

	// cycle is the LRM's scheduling pass interval: a submitted job is
	// considered at the next pass, modeling PBS/Condor negotiation
	// latency.
	cycle time.Duration

	pending []*Handle
	jobs    map[string]*Handle
	seq     int
	passing bool

	// stalledUntil suspends scheduling passes (an LRM hang injected by
	// the fault layer): submissions are still accepted, but no pending
	// job starts before the stall ends.
	stalledUntil time.Time
}

// QueueOption configures a Queue.
type QueueOption func(*Queue)

// WithCycle sets the scheduling pass latency (default 2s, the order of
// magnitude of a local scheduler's negotiation cycle).
func WithCycle(d time.Duration) QueueOption { return func(q *Queue) { q.cycle = d } }

// NewQueue creates an LRM named name with n worker nodes on sim. Each
// node receives its own CPU machine configured by machineOpts.
func NewQueue(sim *simclock.Sim, name string, n int, machineOpts []vmslot.Option, opts ...QueueOption) *Queue {
	q := &Queue{
		sim:   sim,
		name:  name,
		cycle: 2 * time.Second,
		jobs:  make(map[string]*Handle),
	}
	for i := 0; i < n; i++ {
		q.nodes = append(q.nodes, &Node{
			Name: fmt.Sprintf("%s-wn%02d", name, i),
			CPU:  vmslot.NewMachine(sim, machineOpts...),
		})
	}
	q.nfree = len(q.nodes)
	for _, o := range opts {
		o(q)
	}
	return q
}

// Name returns the queue (site) name.
func (q *Queue) Name() string { return q.name }

// Nodes returns the worker nodes (shared slice; do not mutate).
func (q *Queue) Nodes() []*Node { return q.nodes }

// Submission errors.
var (
	ErrDuplicateID = errors.New("batch: duplicate job id")
	ErrBadRequest  = errors.New("batch: bad request")
	ErrUnknownJob  = errors.New("batch: unknown job")
)

// Submit enqueues a job. The job is considered at the next scheduling
// pass (one cycle later), or immediately at the following pass if
// resources are busy.
func (q *Queue) Submit(r Request) (*Handle, error) {
	if r.Run == nil && r.RunCB == nil {
		return nil, fmt.Errorf("%w: nil Run body", ErrBadRequest)
	}
	if r.Nodes < 1 {
		return nil, fmt.Errorf("%w: Nodes = %d", ErrBadRequest, r.Nodes)
	}
	if r.Nodes > len(q.nodes) {
		return nil, fmt.Errorf("%w: job %q wants %d nodes, site has %d", ErrBadRequest, r.ID, r.Nodes, len(q.nodes))
	}
	if r.ID == "" {
		r.ID = fmt.Sprintf("%s.%d", q.name, q.seq)
	}
	if _, dup := q.jobs[r.ID]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateID, r.ID)
	}
	h := &Handle{
		sim:      q.sim,
		req:      r,
		st:       Pending,
		Done:     q.sim.NewTrigger(),
		Started:  q.sim.NewTrigger(),
		submitAt: q.sim.Now(),
		seq:      q.seq,
	}
	q.seq++
	q.jobs[r.ID] = h
	q.pending = append(q.pending, h)
	q.schedulePass()
	return h, nil
}

// schedulePass arranges a scheduling pass one cycle from now (or at
// the end of an injected stall, whichever is later), if one is not
// already scheduled.
func (q *Queue) schedulePass() {
	if q.passing {
		return
	}
	q.passing = true
	d := q.cycle
	if until := q.stalledUntil.Sub(q.sim.Now()); until > d {
		d = until
	}
	q.sim.AfterFunc(d, func() {
		q.passing = false
		q.pass()
	})
}

// Stall suspends scheduling passes for d (a hung LRM daemon): jobs
// keep queueing but none starts until the stall elapses. Overlapping
// stalls extend to the latest end.
func (q *Queue) Stall(d time.Duration) {
	until := q.sim.Now().Add(d)
	if until.After(q.stalledUntil) {
		q.stalledUntil = until
	}
	if len(q.pending) > 0 {
		q.schedulePass()
	}
}

// Stalled reports whether the LRM is currently inside an injected
// stall window.
func (q *Queue) Stalled() bool { return q.sim.Now().Before(q.stalledUntil) }

// CrashAll models the site's worker pool dying with its gatekeeper:
// every running job is killed (bodies observe their Killed trigger)
// and every pending job is dropped as Killed, including uncommitted
// two-phase-commit submissions.
func (q *Queue) CrashAll() {
	for _, h := range q.pending {
		h.st = Killed
		h.Done.Fire()
	}
	q.pending = nil
	// Kill in submission order: q.jobs is a map, and job bodies emit
	// trace events from their Killed hooks, so iteration order must be
	// deterministic.
	running := make([]*Handle, 0, len(q.jobs))
	for _, h := range q.jobs {
		if h.st == Running {
			running = append(running, h)
		}
	}
	sort.Slice(running, func(i, j int) bool { return running[i].seq < running[j].seq })
	for _, h := range running {
		h.exec.Killed.Fire()
	}
}

// pass starts every pending job that fits, in priority order (FCFS
// within a level). No backfill: a large job at the head blocks later
// jobs, as in a plain FCFS PBS configuration.
func (q *Queue) pass() {
	if q.Stalled() {
		if len(q.pending) > 0 {
			q.schedulePass()
		}
		return
	}
	sort.SliceStable(q.pending, func(i, j int) bool {
		if q.pending[i].req.Priority != q.pending[j].req.Priority {
			return q.pending[i].req.Priority > q.pending[j].req.Priority
		}
		return q.pending[i].seq < q.pending[j].seq
	})
	for len(q.pending) > 0 {
		h := q.pending[0]
		if q.nfree < h.req.Nodes {
			return
		}
		// Exact-size allocation: the slice is retained in ExecCtx for
		// the job's whole run, so it cannot come from a scratch buffer.
		nodes := make([]*Node, 0, h.req.Nodes)
		for _, n := range q.nodes {
			if n.holder == nil {
				nodes = append(nodes, n)
				if len(nodes) == h.req.Nodes {
					break
				}
			}
		}
		q.pending = q.pending[1:]
		q.start(h, nodes)
	}
}

type job struct{ h *Handle }

func (q *Queue) start(h *Handle, nodes []*Node) {
	h.st = Running
	h.startAt = q.sim.Now()
	j := &job{h: h}
	for _, n := range nodes {
		n.holder = j
	}
	q.nfree -= len(nodes)
	h.exec = &ExecCtx{Nodes: nodes, Killed: q.sim.NewTrigger(), sim: q.sim}
	h.Started.Fire()
	if h.req.RunCB != nil {
		// Run-to-completion body: one event at +0 (the same slot a
		// process start takes), then the body's own continuation chain;
		// finish runs when the body signals done.
		q.sim.Post(func() {
			h.req.RunCB(h.exec, func() { q.finish(h, nodes) })
		})
		return
	}
	q.sim.Go(func() {
		h.req.Run(h.exec)
		q.finish(h, nodes)
	})
}

func (q *Queue) finish(h *Handle, nodes []*Node) {
	for _, n := range nodes {
		if n.holder != nil && n.holder.h == h {
			n.holder = nil
			q.nfree++
		}
	}
	if h.st == Running {
		if h.exec.Killed.Fired() {
			h.st = Killed
		} else {
			h.st = Completed
		}
	}
	h.Done.Fire()
	if len(q.pending) > 0 {
		q.schedulePass()
	}
}

// Kill removes a pending job or signals a running one to stop. The
// running job's body must honour its Killed trigger; the node is
// released when the body returns.
func (q *Queue) Kill(id string) error {
	h, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch h.st {
	case Pending:
		for i, p := range q.pending {
			if p == h {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				break
			}
		}
		h.st = Killed
		h.Done.Fire()
	case Running:
		h.exec.Killed.Fire()
	}
	return nil
}

// Lookup returns the handle for a job id.
func (q *Queue) Lookup(id string) (*Handle, bool) {
	h, ok := q.jobs[id]
	return h, ok
}

// FreeNodeCount reports nodes with no holder.
func (q *Queue) FreeNodeCount() int { return q.nfree }

// TotalCPUs reports the queue's capacity. For the fixed batch pool it
// equals the provisioned node count.
func (q *Queue) TotalCPUs() int { return len(q.nodes) }

// Backend describes the batch queue's shape: an always-provisioned
// space-shared pool with no node startup cost beyond the scheduling
// cycle.
func (q *Queue) Backend() BackendInfo { return BackendInfo{Kind: BackendBatch} }

// QueueLength reports the number of pending jobs.
func (q *Queue) QueueLength() int { return len(q.pending) }

// RunningCount reports the number of running jobs.
func (q *Queue) RunningCount() int {
	n := 0
	for _, h := range q.jobs {
		if h.st == Running {
			n++
		}
	}
	return n
}

// FixedWork returns a job body that consumes the given CPU time on a
// dedicated slot of every allocated node (the common synthetic batch
// job), returning early if killed.
func FixedWork(cpu time.Duration) func(*ExecCtx) {
	return func(ctx *ExecCtx) {
		if len(ctx.Nodes) == 0 {
			return
		}
		done := ctx.sim.NewTrigger()
		remaining := len(ctx.Nodes)
		slots := make([]*vmslot.Slot, 0, len(ctx.Nodes))
		for _, n := range ctx.Nodes {
			slot := n.CPU.NewSlot("batchjob", 100)
			slots = append(slots, slot)
			t := slot.Start(cpu)
			t.OnFire(func() {
				remaining--
				if remaining == 0 {
					done.Fire()
				}
			})
		}
		ctx.Killed.OnFire(done.Fire)
		done.Wait()
		for _, s := range slots {
			s.Close() // stops any work left when killed; idempotent
		}
	}
}
