package site

import (
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/trace"
)

// gatekeeperRun is everything observable about one submission: when it
// resolved, its outcome, the site's commit bookkeeping and the
// site's event log.
type gatekeeperRun struct {
	at      time.Duration
	outcome string
	stats   CommitStats
	events  string
}

// runGatekeeper builds a fresh one-node site, applies fault, then runs
// call — Submit in a process, or SubmitAsync in an event — and records
// what happened.
func runGatekeeper(t *testing.T, fault func(*simclock.Sim, *Site), call func(*simclock.Sim, *Site, func(string))) gatekeeperRun {
	t.Helper()
	sim := simclock.NewSim(time.Time{})
	s := newSite(sim, 1)
	tr := trace.New(sim.Now)
	s.SetTracer(tr)
	if fault != nil {
		fault(sim, s)
	}
	start := sim.Now()
	var r gatekeeperRun
	call(sim, s, func(outcome string) {
		r.at, r.outcome = sim.Since(start), outcome
	})
	sim.RunFor(time.Hour)
	if r.outcome == "" {
		t.Fatal("call never resolved")
	}
	r.stats = s.Stats()
	r.events = fmt.Sprint(tr.Events())
	return r
}

func submitOutcome(h *batch.Handle, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return "accepted " + h.ID()
}

// TestSubmitAsyncMatchesSubmit holds the gatekeeper's two submission
// forms to each other: the callback chain the broker uses and the
// blocking reference glidein.Launch uses must resolve at the same
// instant with the same outcome, commit statistics and events, on the
// happy path and at every failure point of the two-phase commit.
func TestSubmitAsyncMatchesSubmit(t *testing.T) {
	c := DefaultCosts()
	rtt := netsim.CampusGrid().RTT()
	at := func(d time.Duration, fn func(*Site)) func(*simclock.Sim, *Site) {
		return func(sim *simclock.Sim, s *Site) { sim.AfterFunc(d, func() { fn(s) }) }
	}
	cases := []struct {
		name  string
		opts  SubmitOptions
		nodes int
		fault func(*simclock.Sim, *Site)
	}{
		{name: "accepted", opts: SubmitOptions{TraceJob: "job", TraceAttempt: 2}},
		{name: "with-agent", opts: SubmitOptions{WithAgent: true}},
		{name: "skip-stage", opts: SubmitOptions{SkipStage: true}},
		{name: "phase1-reject", nodes: 2},
		{name: "unreachable", fault: func(_ *simclock.Sim, s *Site) { s.SetUnreachable(true) }},
		{name: "stalled", fault: func(_ *simclock.Sim, s *Site) { s.StallGatekeeper(2 * time.Minute) }},
		{name: "crash-in-transfer", fault: at(c.Stage+rtt/2, (*Site).Crash)},
		{name: "crash-in-auth", fault: at(c.Stage+rtt+c.Auth/2, (*Site).Crash)},
		{name: "outage-in-commit", fault: at(c.Stage+rtt+c.Auth+c.GRAM+rtt/2, func(s *Site) { s.SetUnreachable(true) })},
		{name: "crash-in-commit", fault: at(c.Stage+rtt+c.Auth+c.GRAM+rtt/2, (*Site).Crash)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes := tc.nodes
			if nodes == 0 {
				nodes = 1
			}
			req := func() batch.Request {
				return batch.Request{ID: "j", Nodes: nodes, RunCB: func(_ *batch.ExecCtx, done func()) { done() }}
			}
			blocking := runGatekeeper(t, tc.fault, func(sim *simclock.Sim, s *Site, done func(string)) {
				sim.Go(func() { done(submitOutcome(s.Submit(req(), tc.opts))) })
			})
			async := runGatekeeper(t, tc.fault, func(sim *simclock.Sim, s *Site, done func(string)) {
				sim.Post(func() {
					s.SubmitAsync(req(), tc.opts, func(h *batch.Handle, err error) { done(submitOutcome(h, err)) })
				})
			})
			if async != blocking {
				t.Fatalf("SubmitAsync diverged from Submit:\n async    %+v\n blocking %+v", async, blocking)
			}
		})
	}
}
