package broker

import (
	"fmt"
	"testing"
	"time"

	"crossbroker/internal/datacat"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
)

// equivGrid builds a broker over a heterogeneous 30-site grid behind a
// sharded information service: some sites fail the test job's
// Requirements, the Preferred attribute creates rank ties in groups so
// the seeded tie-break decides, and republishing is pushed out of the
// measured window.
func equivGrid(cfg Config, shards int) (*simclock.Sim, *Broker) {
	sim := simclock.NewSim(time.Time{})
	cfg.Sim = sim
	cfg.Info = infosys.NewSharded(sim, 500*time.Millisecond, shards)
	b := New(cfg)
	for i := 0; i < 30; i++ {
		arch := "i686"
		if i%5 == 4 {
			arch = "ppc" // fails Requirements
		}
		b.RegisterSite(site.New(sim, site.Config{
			Name:            fmt.Sprintf("site%02d", i),
			Nodes:           1 + i%3,
			Network:         netsim.CampusGrid(),
			Costs:           site.DefaultCosts(),
			PublishInterval: 10000 * time.Hour,
			Attrs: map[string]any{
				"Arch": arch, "OS": "linux",
				"MemoryMB": 256 + 64*(i%4), "Preferred": 1 + i%3,
			},
		}))
	}
	sim.RunFor(time.Second) // land the initial publishes
	return sim, b
}

func equivJob(t *testing.T) *jdl.Job {
	t.Helper()
	job, err := jdl.ParseJob(`
Executable   = "iapp";
JobType      = {"interactive", "sequential"};
Requirements = other.Arch == "i686" && other.MemoryMB >= 256;
Rank         = other.Preferred;
`)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// await starts an asynchronous flow in its own event — start must call
// done exactly once when the flow completes — then drives the clock
// for up to limit and fails the test if the flow is still in flight.
func await(t *testing.T, sim *simclock.Sim, limit time.Duration, start func(done func())) {
	t.Helper()
	finished := false
	sim.Post(func() { start(func() { finished = true }) })
	sim.RunFor(limit)
	if !finished {
		t.Fatal("flow did not complete")
	}
}

// awaitPass runs one matchPass for h to completion.
func awaitPass(t *testing.T, sim *simclock.Sim, b *Broker, h *Handle) []candidate {
	t.Helper()
	var cands []candidate
	await(t, sim, time.Hour, func(done func()) {
		b.matchPass(h, nil, func(c []candidate) { cands = c; done() })
	})
	return cands
}

// runMatchPass runs one matchPass for a fresh handle on job.
func runMatchPass(t *testing.T, sim *simclock.Sim, b *Broker, job *jdl.Job) []candidate {
	t.Helper()
	return awaitPass(t, sim, b, &Handle{request: Request{Job: job}})
}

// candLine renders a candidate for byte-for-byte comparison.
func candLine(c candidate) string {
	return fmt.Sprintf("%s rank=%g free=%d queued=%d noise=%g",
		c.site.Name(), c.rank, c.free, c.queued, c.noise)
}

// TestStreamEquivalentToSnapshotPass is the refactor's oracle test:
// for a fixed seed the streamed pass must produce the exact ordered
// candidate list of the pre-refactor whole-snapshot pass — with TopK 0
// (keep every match) and with TopK at least the site count — across
// shard counts and page sizes. The hash-derived tie-break noise makes
// the outcome independent of enumeration order, so even the
// shard-major stream must agree byte for byte.
func TestStreamEquivalentToSnapshotPass(t *testing.T) {
	const seed = 2006
	job := equivJob(t)

	sim, ref := equivGrid(Config{Seed: seed, PageSize: -1}, 1)
	want := runMatchPass(t, sim, ref, job)
	if len(want) == 0 {
		t.Fatal("reference pass matched no sites")
	}
	wantLines := make([]string, len(want))
	for i, c := range want {
		wantLines[i] = candLine(c)
	}

	for _, tc := range []struct {
		name             string
		shards, pg, topk int
		data             bool // data-aware with an empty catalog: must be a no-op
	}{
		{"pagesize=3/topk=0", 1, 3, 0, false},
		{"pagesize=7/topk=all", 1, 7, 64, false},
		{"shards=8/topk=0", 8, 4, 0, false},
		{"shards=8/topk=all", 8, 5, 64, false},
		{"shards=64/topk=all", 64, 1, 64, false},
		{"dataaware/empty-catalog", 8, 4, 0, true},
		{"dataaware/empty-catalog/topk=all", 8, 5, 64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Seed: seed, PageSize: tc.pg, TopK: tc.topk}
			if tc.data {
				cfg.Data = datacat.New(datacat.NewLinks(netsim.CampusGrid()))
				cfg.DataAware = true
			}
			sim, b := equivGrid(cfg, tc.shards)
			got := runMatchPass(t, sim, b, job)
			if len(got) != len(want) {
				t.Fatalf("streamed pass kept %d candidates, reference kept %d", len(got), len(want))
			}
			for i := range got {
				if g := candLine(got[i]); g != wantLines[i] {
					t.Fatalf("candidate %d:\n  streamed:  %s\n  reference: %s", i, g, wantLines[i])
				}
			}
		})
	}
}

// TestStreamTopKBoundsCandidates checks the memory contract: TopK
// bounds the held candidate set and the survivors are exactly the
// reference pass's best K.
func TestStreamTopKBoundsCandidates(t *testing.T) {
	const seed, k = 2006, 5
	job := equivJob(t)

	sim, ref := equivGrid(Config{Seed: seed, PageSize: -1}, 1)
	want := runMatchPass(t, sim, ref, job)

	sim, b := equivGrid(Config{Seed: seed, PageSize: 4, TopK: k}, 8)
	h := &Handle{request: Request{Job: job}}
	got := awaitPass(t, sim, b, h)
	if h.peak != k {
		t.Fatalf("peak held candidates = %d, want TopK = %d", h.peak, k)
	}
	if len(got) != k {
		t.Fatalf("kept %d candidates, want %d", len(got), k)
	}
	// The top-K heap ranks on published state; the published and fresh
	// state agree on this idle grid, so the K survivors must be the
	// reference pass's K best in the same order.
	for i := 0; i < k; i++ {
		if candLine(got[i]) != candLine(want[i]) {
			t.Fatalf("candidate %d:\n  streamed:  %s\n  reference: %s", i, candLine(got[i]), candLine(want[i]))
		}
	}
}

// TestStreamedRunsMatchSnapshotRuns replays a whole scheduling
// scenario — interactive and batch jobs with resubmissions and leases,
// the Table I / load-sweep shape — on three identically seeded grids
// differing only in matchmaking path, and requires every job to land
// on the same site with the same resubmission count.
func TestStreamedRunsMatchSnapshotRuns(t *testing.T) {
	type outcome struct{ sites, states string }
	scenario := func(cfg Config) outcome {
		g := newGrid(t, 8, 1, cfg)
		var hs []*Handle
		for i := 0; i < 6; i++ {
			h, err := g.b.Submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
			g.sim.RunFor(time.Second)
		}
		for i := 0; i < 3; i++ {
			h, err := g.b.Submit(batchJob(30 * time.Second))
			if err != nil {
				t.Fatal(err)
			}
			hs = append(hs, h)
		}
		g.sim.RunFor(30 * time.Minute)
		var o outcome
		for _, h := range hs {
			o.sites += fmt.Sprintf("%s/%d ", h.Site(), h.Resubmissions())
			o.states += h.State().String() + " "
		}
		return o
	}

	ref := scenario(Config{Seed: 99, PageSize: -1})
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"stream/topk=0", Config{Seed: 99, PageSize: 3}},
		{"stream/topk=all", Config{Seed: 99, PageSize: 3, TopK: 100}},
	} {
		if got := scenario(tc.cfg); got != ref {
			t.Fatalf("%s diverged from the whole-snapshot run:\n  streamed:  %+v\n  reference: %+v",
				tc.name, got, ref)
		}
	}
}
