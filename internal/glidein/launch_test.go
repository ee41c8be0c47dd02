package glidein

import (
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/batch"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
)

// TestLaunchAsyncMatchesLaunch holds the broker's callback launch to
// the blocking reference: the same agent ID, the same instants for
// the launch result, the node, the batch payload's end and the agent's
// release, with a payload and without, on a live and on a dead site.
func TestLaunchAsyncMatchesLaunch(t *testing.T) {
	type launchFn func(sim *simclock.Sim, st *site.Site, p *BatchPayload, cont func(*Agent, *batch.Handle, error))
	blocking := func(sim *simclock.Sim, st *site.Site, p *BatchPayload, cont func(*Agent, *batch.Handle, error)) {
		sim.Go(func() { cont(LaunchWithOptions(sim, st, p, 0, Options{})) })
	}
	async := func(sim *simclock.Sim, st *site.Site, p *BatchPayload, cont func(*Agent, *batch.Handle, error)) {
		sim.Post(func() { LaunchAsync(sim, st, p, 0, Options{}, cont) })
	}
	run := func(launch launchFn, payload *BatchPayload, down bool) string {
		sim := simclock.NewSim(time.Time{})
		st := newSite(sim, 1)
		if down {
			st.Crash()
		}
		start := sim.Now()
		var log []string
		note := func(what string) { log = append(log, fmt.Sprintf("%v %s", sim.Since(start), what)) }
		launch(sim, st, payload, func(a *Agent, _ *batch.Handle, err error) {
			if err != nil {
				note("error " + err.Error())
				return
			}
			note("launched " + a.ID())
			a.Ready().OnFire(func() { note(fmt.Sprintf("ready free=%v", a.Free())) })
			a.BatchDone().OnFire(func() { note("batch done") })
			a.Released().OnFire(func() { note("released") })
		})
		sim.RunFor(2 * time.Hour)
		return fmt.Sprint(log, " free nodes=", st.Queue().FreeNodeCount())
	}
	for _, tc := range []struct {
		name    string
		payload *BatchPayload
		down    bool
	}{
		{"payload", &BatchPayload{ID: "b", Owner: "u", Work: 10 * time.Minute}, false},
		{"no-payload", nil, false},
		{"site-down", &BatchPayload{ID: "b", Owner: "u", Work: time.Minute}, true},
	} {
		want := run(blocking, tc.payload, tc.down)
		if got := run(async, tc.payload, tc.down); got != want {
			t.Fatalf("%s: LaunchAsync diverged from LaunchWithOptions:\n async    %s\n blocking %s", tc.name, got, want)
		}
	}
}
