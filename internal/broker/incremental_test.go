package broker

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"crossbroker/internal/datacat"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
)

// deltaGrid is equivGrid with the information service exposed, so
// tests can churn the registry and configure the delta log.
func deltaGrid(cfg Config, shards, depth int) (*simclock.Sim, *Broker, *infosys.Service) {
	sim := simclock.NewSim(time.Time{})
	cfg.Sim = sim
	info := infosys.NewSharded(sim, 500*time.Millisecond, shards)
	info.SetDeltaLog(depth)
	cfg.Info = info
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
	return sim, b, info
}

// churn republishes a few sites with moved Preferred ranks plus one
// flip in and out of Requirements — the same function is applied to
// the reference and the incremental grid, keeping them identical.
func churn(t *testing.T, info *infosys.Service, round int) {
	t.Helper()
	for j := 0; j < 5; j++ {
		i := (round*7 + j*3) % 30
		arch := "i686"
		if i%5 == 4 {
			arch = "ppc"
		}
		if j == 4 && round%2 == 1 {
			arch = "ppc" // flip a passing site out of Requirements
		}
		if err := info.Publish(infosys.SiteRecord{
			Name:      fmt.Sprintf("site%02d", i),
			TotalCPUs: 1 + i%3,
			FreeCPUs:  1 + i%3,
			Attrs: map[string]any{
				"Arch": arch, "OS": "linux",
				"MemoryMB": 256 + 64*(i%4), "Preferred": 1 + (i+round)%3,
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIncrementalEquivalentToSnapshotPass is the delta refactor's
// oracle test, the same contract PR 5 proved for the streamed pass:
// for a fixed seed the incremental pass must produce the exact ordered
// candidate list of the whole-snapshot pass — across shard counts,
// TopK settings and log depths (depth 0 forces a re-pin every poll),
// and across passes with identical churn applied to both grids.
func TestIncrementalEquivalentToSnapshotPass(t *testing.T) {
	const seed, rounds = 2006, 4
	job := equivJob(t)

	reference := func() [][]string {
		sim, ref := equivGrid(Config{Seed: seed, PageSize: -1}, 1)
		var info *infosys.Service = ref.cfg.Info.(*infosys.Service)
		var out [][]string
		for r := 0; r < rounds; r++ {
			cands := runMatchPass(t, sim, ref, job)
			lines := make([]string, len(cands))
			for i, c := range cands {
				lines[i] = candLine(c)
			}
			out = append(out, lines)
			churn(t, info, r)
		}
		return out
	}()
	if len(reference[0]) == 0 {
		t.Fatal("reference pass matched no sites")
	}

	for _, tc := range []struct {
		name                string
		shards, topk, depth int
		data                bool // data-aware with an empty catalog: must be a no-op
	}{
		{"shards=8/topk=0/depth=64", 8, 0, 64, false},
		{"shards=8/topk=all/depth=64", 8, 64, 64, false},
		{"shards=1/topk=0/depth=1", 1, 0, 1, false},
		{"shards=8/topk=all/depth=0", 8, 64, 0, false}, // re-pin every poll
		{"shards=64/topk=all/depth=2", 64, 64, 2, false},
		{"dataaware/empty-catalog/depth=64", 8, 0, 64, true},
		{"dataaware/empty-catalog/topk=all/depth=0", 8, 64, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Seed: seed, TopK: tc.topk, Incremental: true}
			if tc.data {
				cfg.Data = datacat.New(datacat.NewLinks(netsim.CampusGrid()))
				cfg.DataAware = true
			}
			sim, b, info := deltaGrid(cfg, tc.shards, tc.depth)
			for r := 0; r < rounds; r++ {
				cands := runMatchPass(t, sim, b, job)
				if len(cands) != len(reference[r]) {
					t.Fatalf("round %d: incremental kept %d candidates, reference kept %d",
						r, len(cands), len(reference[r]))
				}
				for i := range cands {
					if g := candLine(cands[i]); g != reference[r][i] {
						t.Fatalf("round %d candidate %d:\n  incremental: %s\n  reference:   %s",
							r, i, g, reference[r][i])
					}
				}
				churn(t, info, r)
			}
		})
	}
}

// TestIncrementalTopKBoundsCandidates mirrors the streamed pass's
// memory contract: TopK bounds the extracted set and the survivors are
// the reference pass's best K, with the pass reporting delta — not
// snapshot — discovery work once the mirror is warm.
func TestIncrementalTopKBoundsCandidates(t *testing.T) {
	const seed, k = 2006, 5
	job := equivJob(t)

	sim, ref := equivGrid(Config{Seed: seed, PageSize: -1}, 1)
	want := runMatchPass(t, sim, ref, job)

	sim, b, info := deltaGrid(Config{Seed: seed, TopK: k, Incremental: true}, 8, 64)
	h := &Handle{request: Request{Job: job}}
	var got []candidate
	done := false
	sim.Go(func() { got = b.matchPass(h, nil); done = true })
	sim.RunFor(time.Hour)
	if !done {
		t.Fatal("pass did not complete")
	}
	if h.peak != k || len(got) != k {
		t.Fatalf("peak=%d kept=%d, want TopK=%d", h.peak, len(got), k)
	}
	for i := 0; i < k; i++ {
		if candLine(got[i]) != candLine(want[i]) {
			t.Fatalf("candidate %d:\n  incremental: %s\n  reference:   %s", i, candLine(got[i]), candLine(want[i]))
		}
	}
	// The depth-64 log covers the service's whole history, so the
	// initial catch-up arrives as one delta per publish, no re-pins.
	if h.deltas != 30 || h.repins != 0 {
		t.Fatalf("first poll: deltas=%d repins=%d, want the 30 initial publishes as deltas", h.deltas, h.repins)
	}

	// Steady state: a churned pass applies deltas, not re-pins.
	churn(t, info, 1)
	h = &Handle{request: Request{Job: job}}
	done = false
	sim.Go(func() { b.matchPass(h, nil); done = true })
	sim.RunFor(time.Hour)
	if !done {
		t.Fatal("second pass did not complete")
	}
	if h.deltas == 0 || h.repins != 0 {
		t.Fatalf("steady-state pass: deltas=%d repins=%d, want pure delta repair", h.deltas, h.repins)
	}
	if h.matchEpoch != info.Epoch() {
		t.Fatalf("pass matched at epoch %d, registry at %d", h.matchEpoch, info.Epoch())
	}
}

// TestStandingTreeMatchesRecompute is the property test: after any
// random sequence of publishes, updates, removes and schema changes —
// including bursts past the log depth that force re-pins — each
// standing job's tree must hold exactly the requirement-passing sites
// in (prelim desc, name asc) order, as recomputed independently from a
// registry snapshot. Runs under -race in the CI matrix.
func TestStandingTreeMatchesRecompute(t *testing.T) {
	jobs := []*jdl.Job{equivJob(t), mustParseJob(t, `
Executable   = "iapp2";
JobType      = {"interactive", "sequential"};
Requirements = other.MemoryMB >= 320;
Rank         = other.MemoryMB + other.Preferred;
`)}

	for trial := int64(0); trial < 6; trial++ {
		rng := rand.New(rand.NewSource(7000 + trial))
		sim, b, info := deltaGrid(Config{Seed: 1, Incremental: true, TopK: 4}, 4, 8)
		s := b.sub

		poll := func() {
			done := false
			sim.Go(func() { s.poll(nil); done = true })
			sim.RunFor(time.Hour)
			if !done {
				t.Fatal("poll did not complete")
			}
		}
		poll()
		for _, job := range jobs {
			s.state(job) // make the trees standing
		}

		for step := 0; step < 40; step++ {
			// A burst of mutations; bursts larger than the depth-8 log
			// force gap re-pins on the touched shards.
			burst := 1 + rng.Intn(12)
			for m := 0; m < burst; m++ {
				i := rng.Intn(34) // names beyond the registered 30 exercise add/remove
				name := fmt.Sprintf("site%02d", i)
				switch {
				case rng.Intn(6) == 0:
					info.Remove(name)
				default:
					attrs := map[string]any{
						"Arch": []string{"i686", "ppc"}[rng.Intn(2)], "OS": "linux",
						"MemoryMB": 256 + 64*rng.Intn(4), "Preferred": 1 + rng.Intn(3),
					}
					if rng.Intn(20) == 0 {
						// Widen the attribute set: a schema change that
						// forces the subscriber to re-flatten and rebuild.
						attrs[fmt.Sprintf("Extra%d", rng.Intn(3))] = step
					}
					if err := info.Publish(infosys.SiteRecord{
						Name: name, TotalCPUs: 4, FreeCPUs: 1 + rng.Intn(4), Attrs: attrs,
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			poll()

			snap := info.SnapshotImmediate()
			if len(s.mirror) != snap.Len() {
				t.Fatalf("trial %d step %d: mirror holds %d records, registry %d", trial, step, len(s.mirror), snap.Len())
			}
			for _, job := range jobs {
				got := standingLines(s.jobs[job])
				want := recomputeStanding(t, job, snap)
				if len(got) != len(want) {
					t.Fatalf("trial %d step %d: tree has %d sites, recompute %d\n tree: %v\n want: %v",
						trial, step, len(got), len(want), got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d step %d entry %d: tree %s, recompute %s", trial, step, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// recomputeStanding evaluates the job against every snapshot record
// directly — no treap, no mirror — and returns the standing order.
func recomputeStanding(t *testing.T, job *jdl.Job, snap *infosys.Snapshot) []string {
	t.Helper()
	sc := snap.Schema()
	req, rank := job.CompiledPredicates(sc)
	type entry struct {
		name   string
		prelim float64
	}
	var entries []entry
	for i := 0; i < snap.Len(); i++ {
		r := snap.RecordShared(i)
		vals := sc.Flatten(r)
		if req != nil {
			ok, err := req.EvalBool(vals)
			if err != nil || !ok {
				continue
			}
		}
		prelim := float64(r.FreeCPUs)
		if rank != nil {
			if v, err := rank.EvalNumber(vals); err == nil {
				prelim = v
			} else {
				prelim = 0
			}
		}
		entries = append(entries, entry{r.Name, prelim})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].prelim != entries[j].prelim {
			return entries[i].prelim > entries[j].prelim
		}
		return entries[i].name < entries[j].name
	})
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = fmt.Sprintf("%s:%g", e.name, e.prelim)
	}
	return out
}

func mustParseJob(t *testing.T, src string) *jdl.Job {
	t.Helper()
	job, err := jdl.ParseJob(src)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestIncrementalRunsMatchSnapshotRuns replays whole scheduling
// scenarios on identically seeded grids differing only in matchmaking
// path: every job must land on the same site with the same
// resubmission count and end state, and the ordered Matched events
// must agree, whether matched from snapshots, delta subscriptions, or
// the log-less re-pin fallback. Beyond plain placement, the cells
// evict placed jobs with site crashes and overfill a small grid so a
// job retries Pending — the paths where a released standing tree is
// rebuilt on re-entry to matching. Those two cells space their
// evictions and retries so no two match passes overlap: the
// subscriber serializes concurrent polls and the snapshot pass does
// not, so several evictions or Pending retries at one instant shift
// virtual time between the paths, which is outside this contract.
func TestIncrementalRunsMatchSnapshotRuns(t *testing.T) {
	rankedBatch := func(cpu time.Duration) Request {
		job := mustParseJob(t, `
Executable = "bapp";
Rank       = other.FreeCPUs - other.QueuedJobs;
`)
		return Request{Job: job, User: "batchuser", CPU: cpu}
	}
	type outcome struct{ sites, states, matched string }
	for _, cell := range []struct {
		name          string
		nSites, nodes int
		drive         func(g *grid, submit func(Request)) // submits and runs
		check         func(t *testing.T, ref outcome)     // the cell exercises its path
	}{
		{"placed", 8, 1, func(g *grid, submit func(Request)) {
			for i := 0; i < 6; i++ {
				submit(interactiveJob(jdl.ExclusiveAccess, 0, 1))
				g.sim.RunFor(time.Second)
			}
			for i := 0; i < 3; i++ {
				submit(batchJob(30 * time.Second))
			}
			g.sim.RunFor(30 * time.Minute)
		}, nil},
		{"site-crashes", 4, 1, func(g *grid, submit func(Request)) {
			// One job per site, then two crashes a quarter of an
			// hour apart, each evicting one running job.
			for i := 0; i < 3; i++ {
				submit(rankedBatch(40 * time.Minute))
				g.sim.RunFor(time.Minute)
			}
			for i, at := range []time.Duration{5 * time.Minute, 20 * time.Minute} {
				st := g.sites[i]
				g.sim.AfterFunc(at, st.Crash)
				g.sim.AfterFunc(at+time.Minute, st.Restart)
			}
			g.sim.RunFor(3 * time.Hour)
		}, func(t *testing.T, ref outcome) {
			if n := strings.Count(ref.matched, "/1 "); n != 2 {
				t.Fatalf("%d jobs resubmitted after the two crashes, want 2: %s", n, ref.matched)
			}
		}},
		{"pending-retries", 2, 1, func(g *grid, submit func(Request)) {
			// Six jobs fill both nodes and all four queue slots; the
			// seventh waits Pending and matches only on a retry.
			for i := 0; i < 7; i++ {
				submit(rankedBatch(10 * time.Minute))
				g.sim.RunFor(time.Minute)
			}
			if n := len(g.b.pendingBatch); n != 1 {
				t.Fatalf("%d jobs Pending on the full grid, want 1", n)
			}
			g.sim.RunFor(3 * time.Hour)
		}, nil},
	} {
		scenario := func(cfg Config, depth int) outcome {
			g, tr := tracedGrid(t, cell.nSites, cell.nodes, cfg)
			g.info.SetDeltaLog(depth)
			var hs []*Handle
			cell.drive(g, func(req Request) {
				h, err := g.b.Submit(req)
				if err != nil {
					t.Fatal(err)
				}
				hs = append(hs, h)
			})
			var o outcome
			for _, h := range hs {
				o.sites += fmt.Sprintf("%s/%d ", h.Site(), h.Resubmissions())
				o.states += h.State().String() + " "
			}
			for _, e := range tr.Events() {
				if e.Kind == trace.Matched {
					o.matched += fmt.Sprintf("%s@%s/%d ", e.Job, e.Site, e.Attempt)
				}
			}
			return o
		}
		t.Run(cell.name, func(t *testing.T) {
			ref := scenario(Config{Seed: 99, PageSize: -1}, 0)
			if cell.check != nil {
				cell.check(t, ref)
			}
			for _, tc := range []struct {
				name  string
				depth int
			}{
				{"incremental/depth=64", 64},
				{"incremental/depth=0", 0}, // every poll re-pins
			} {
				if got := scenario(Config{Seed: 99, Incremental: true}, tc.depth); got != ref {
					t.Fatalf("%s diverged from the whole-snapshot run:\n  incremental: %+v\n  reference:   %+v",
						tc.name, got, ref)
				}
			}
		})
	}
}

// standingLines renders a standing tree in walk order, in
// recomputeStanding's format.
func standingLines(js *jobState) []string {
	var out []string
	walkTree(js.root, func(n *standNode) bool {
		out = append(out, fmt.Sprintf("%s:%g", n.name, n.prelim))
		return true
	})
	return out
}

// lifetimeGrid is a small incremental grid whose registry moves only
// when the test publishes: three one-node i686 sites with one queue
// slot each, so six jobs fill them, plus a ppc site the test jobs'
// Requirements reject.
func lifetimeGrid(t *testing.T) (*simclock.Sim, *Broker, *infosys.Service, []*site.Site) {
	t.Helper()
	sim := simclock.NewSim(time.Time{})
	info := infosys.NewSharded(sim, 500*time.Millisecond, 2)
	info.SetDeltaLog(64)
	b := New(Config{Sim: sim, Info: info, Seed: 5, Incremental: true, TopK: 4})
	var sites []*site.Site
	for i := 0; i < 4; i++ {
		arch := "i686"
		if i == 3 {
			arch = "ppc"
		}
		st := site.New(sim, site.Config{
			Name:            fmt.Sprintf("site%02d", i),
			Nodes:           1,
			QueueSlots:      1,
			Network:         netsim.CampusGrid(),
			Costs:           site.DefaultCosts(),
			PublishInterval: 10000 * time.Hour,
			Attrs:           map[string]any{"Arch": arch, "OS": "linux", "MemoryMB": 512, "Preferred": 1 + i},
		})
		b.RegisterSite(st)
		sites = append(sites, st)
	}
	sim.RunFor(time.Second)
	return sim, b, info, sites
}

// TestStandingTreeLifetime pins when a job holds a standing tree: not
// while it is queued or running at a site, but while it is parked
// Pending on a full grid — where deltas keep repairing it — and again
// after an eviction sends it back to matching, when the tree is
// rebuilt from the mirror. Every held tree must equal an independent
// recompute from the registry.
func TestStandingTreeLifetime(t *testing.T) {
	sim, b, info, sites := lifetimeGrid(t)
	s := b.sub
	submit := func() *Handle {
		t.Helper()
		job := mustParseJob(t, `
Executable   = "bapp";
Requirements = other.Arch == "i686";
Rank         = other.Preferred;
`)
		h, err := b.Submit(Request{Job: job, User: "u", CPU: 10 * time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// burst republishes every i686 site with moved ranks and one
	// requirement flip, and drops the ppc site from the registry.
	burst := func(round int) {
		t.Helper()
		for i := 0; i < 3; i++ {
			arch := "i686"
			if i == round%3 {
				arch = "ppc"
			}
			if err := info.Publish(infosys.SiteRecord{
				Name: fmt.Sprintf("site%02d", i), TotalCPUs: 1, FreeCPUs: round % 2,
				Attrs: map[string]any{"Arch": arch, "OS": "linux", "MemoryMB": 512, "Preferred": 1 + (i+round)%3},
			}); err != nil {
				t.Fatal(err)
			}
		}
		info.Remove("site03")
	}
	// check polls the mirror up to date and compares each job's tree
	// with a recompute from the registry at that instant.
	check := func(when string, hs []*Handle) {
		t.Helper()
		var snap *infosys.Snapshot
		trees := make([][]string, len(hs))
		held := make([]bool, len(hs))
		done := false
		sim.Go(func() {
			s.poll(nil)
			snap = info.SnapshotImmediate()
			for i, h := range hs {
				if js := s.jobs[h.request.Job]; js != nil {
					trees[i], held[i] = standingLines(js), true
				}
			}
			done = true
		})
		sim.RunFor(time.Second)
		if !done {
			t.Fatalf("%s: poll did not complete", when)
		}
		for i, h := range hs {
			if !held[i] {
				t.Fatalf("%s: job %s (state %v) holds no standing tree", when, h.ID, h.State())
			}
			want := recomputeStanding(t, h.request.Job, snap)
			if fmt.Sprint(trees[i]) != fmt.Sprint(want) {
				t.Fatalf("%s: job %s tree %v, recompute %v", when, h.ID, trees[i], want)
			}
		}
	}

	var placed []*Handle
	for i := 0; i < 6; i++ {
		placed = append(placed, submit())
		sim.RunFor(time.Minute) // let the launch land before the next probe
	}
	for _, h := range placed {
		if st := h.State(); st != Submitted && st != Running {
			t.Fatalf("job %s is %v, want queued or running at a site", h.ID, st)
		}
	}
	if n := len(s.jobs); n != 0 {
		t.Fatalf("%d standing trees with every job placed, want 0", n)
	}

	waiting := submit()
	sim.RunFor(time.Minute)
	if waiting.State() != Pending {
		t.Fatalf("overflow job is %v, want Pending on the full grid", waiting.State())
	}
	check("pending", []*Handle{waiting})
	burst(1)
	check("pending after a publish burst", []*Handle{waiting})

	// Evict the jobs on one site: they re-enter matching, find the
	// grid still full and park Pending beside the overflow job.
	for _, st := range sites {
		if st.Name() == placed[0].Site() {
			st.Crash()
		}
	}
	sim.RunFor(2 * time.Minute)
	evicted := []*Handle{waiting}
	for _, h := range placed {
		if h.Resubmissions() > 0 {
			if h.State() != Pending {
				t.Fatalf("evicted job %s is %v, want Pending", h.ID, h.State())
			}
			evicted = append(evicted, h)
		}
	}
	if len(evicted) == 1 {
		t.Fatal("the crash evicted no job")
	}
	check("rebuilt after eviction", evicted)
	burst(2)
	check("rebuilt after eviction and a publish burst", evicted)
}
