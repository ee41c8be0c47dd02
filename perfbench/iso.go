package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/simclock"
	"crossbroker/internal/trace"
	"crossbroker/internal/workload"
)

// The harnesses here run one layer alone, outside any simulation
// run, so its cost can be read without the layers around it.

// quiet runs fn on one scheduler thread with the collector off, so
// allocation counts repeat and no collection lands inside the timing.
func quiet(fn func()) {
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	runtime.GC()
	fn()
	debug.SetGCPercent(gc)
	runtime.GOMAXPROCS(procs)
}

// isoIngest decodes the archive with a TraceReader, no simulation:
// records per second and allocations per record.
func isoIngest(archive []byte) (recsPerSec, allocsPerRec float64, err error) {
	var recs int
	var elapsed time.Duration
	var mallocs uint64
	quiet(func() {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for pass := 0; pass < 3 && err == nil; pass++ {
			tr := workload.NewTraceReader(bytes.NewReader(archive), workload.FormatSWF, workload.TraceReaderOptions{})
			for {
				if _, e := tr.Next(); e != nil {
					if e != io.EOF {
						err = e
					}
					break
				}
				recs++
			}
		}
		elapsed = time.Since(t0)
		runtime.ReadMemStats(&ms1)
		mallocs = ms1.Mallocs - ms0.Mallocs
	})
	if err != nil || recs == 0 {
		return 0, 0, fmt.Errorf("iso ingest: %d records, err %v", recs, err)
	}
	return float64(recs) / elapsed.Seconds(), float64(mallocs) / float64(recs), nil
}

// isoEngine drives the event engine alone on an event mix shaped like
// a replay: timers spread over minutes (arrivals, LRMS cycles,
// publishes), same-timestamp Post bursts (zero-gap arrivals, probe
// fan-out) and one-shot triggers with a waiter (job Done hooks).
func isoEngine(seed int64) (nsPerEvent, allocsPerEvent float64) {
	const chains, rounds = 512, 400
	var events int
	var elapsed time.Duration
	var mallocs uint64
	quiet(func() {
		sim := simclock.NewSim(time.Time{})
		sim.SetEngine(simclock.EngineCallback)
		rng := rand.New(rand.NewSource(seed))
		count := func() { events++ }
		var tick func(left int)
		tick = func(left int) {
			events++
			for k := 0; k < 3; k++ {
				sim.Post(count)
			}
			t := sim.NewTrigger()
			t.OnFire(count)
			sim.Post(func() {
				events++
				t.Fire()
			})
			if left > 0 {
				sim.AfterFunc(time.Duration(1+rng.Intn(600_000))*time.Millisecond, func() { tick(left - 1) })
			}
		}
		for c := 0; c < chains; c++ {
			sim.AfterFunc(time.Duration(rng.Intn(600_000))*time.Millisecond, func() { tick(rounds) })
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		sim.Run()
		elapsed = time.Since(t0)
		runtime.ReadMemStats(&ms1)
		mallocs = ms1.Mallocs - ms0.Mallocs
	})
	return float64(elapsed.Nanoseconds()) / float64(events), float64(mallocs) / float64(events)
}

// matchIso is the match pass measured on a standing grid shaped like
// the workload.
type matchIso struct {
	passNs, scanned, allocs float64 // per pass
	deltas, repins          float64 // per pass, delta-subscription grids only
	evalNs                  float64 // per predicate evaluation, JDL workloads only
	passes                  int
}

// isoMatch builds the workload's grid with no periodic publishes and
// no jobs, then times SelectionPassStatsAsync passes: discovery, the
// page scan or delta poll, top-K and the site probes. On the
// delta-subscription grid each pass follows a burst of publishes as
// large as the workload's publish rate leaves between two arrivals.
func isoMatch(sp spec, in *inputs, seed int64) (matchIso, error) {
	var m matchIso
	g := buildGrid(sp, in, seed, nil, 10000*time.Hour)
	g.sim.RunFor(time.Minute) // the initial publishes land

	var jobs []*jdl.Job
	if sp.jdl {
		for i := 0; i < len(in.texts) && len(jobs) < 64; i++ {
			j, err := jdl.ParseJob(in.texts[i])
			if err != nil {
				return m, err
			}
			if !j.Interactive {
				jobs = append(jobs, j)
			}
		}
	} else {
		jobs = append(jobs, &jdl.Job{Executable: "bapp", NodeNumber: 1})
	}

	burst := 0
	if sp.shards > 0 {
		burst = max(1, int(int64(sp.sites)*int64(sp.span)/(int64(sp.jobs)*int64(sp.publish))))
	}
	rng := rand.New(rand.NewSource(seed))
	churn := func() {
		for k := 0; k < burst; k++ {
			// A site's own record, as its periodic publish sends it,
			// with only the load figures moved.
			rec := g.sites[rng.Intn(sp.sites)].Record()
			rec.FreeCPUs = rng.Intn(sp.nodes + 1)
			rec.QueuedJobs = rng.Intn(4)
			_ = g.info.Publish(rec)
		}
	}
	pass := func(job *jdl.Job) (broker.PassStats, error) {
		var st broker.PassStats
		done := g.sim.NewTrigger()
		g.sim.Post(func() {
			g.b.SelectionPassStatsAsync(job, func(ps broker.PassStats) { st = ps; done.Fire() })
		})
		for i := 0; !done.Fired(); i++ {
			if i > 3600 {
				return st, fmt.Errorf("iso match: pass did not complete in an hour of virtual time")
			}
			g.sim.RunFor(time.Second)
		}
		return st, nil
	}
	// Warm up: compile predicates, build shard snapshots, fill pools
	// and, on the delta path, absorb the catch-up re-pin and plant
	// every job's standing tree.
	for i := 0; i < len(jobs)+2; i++ {
		churn()
		if _, err := pass(jobs[i%len(jobs)]); err != nil {
			return m, err
		}
	}
	const passes = 256
	var err error
	quiet(func() {
		for i := 0; i < passes && err == nil; i++ {
			churn()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			var st broker.PassStats
			st, err = pass(jobs[i%len(jobs)])
			m.passNs += float64(time.Since(t0).Nanoseconds())
			runtime.ReadMemStats(&ms1)
			m.allocs += float64(ms1.Mallocs - ms0.Mallocs)
			m.scanned += float64(st.Scanned)
			m.deltas += float64(st.Deltas)
			m.repins += float64(st.Repins)
		}
	})
	if err != nil {
		return m, err
	}
	m.passes = passes
	for _, v := range []*float64{&m.passNs, &m.scanned, &m.allocs, &m.deltas, &m.repins} {
		*v /= passes
	}
	if sp.jdl {
		m.evalNs = isoEval(jobs, g.info.SnapshotImmediate())
	}
	return m, nil
}

// isoEval compiles the jobs' predicates once against the registry
// schema, then evaluates Requirements (EvalBool) and Rank (EvalNumber)
// against every site's attribute vector.
func isoEval(jobs []*jdl.Job, snap *infosys.Snapshot) float64 {
	vals := make([][]any, snap.Len())
	for i := range vals {
		m := snap.MatchAttrs(i)
		vals[i] = append([]any(nil), m.Values()...)
		m.Release()
	}
	var evals int
	var elapsed time.Duration
	quiet(func() {
		t0 := time.Now()
		for rep := 0; rep < 50; rep++ {
			for _, j := range jobs {
				req, rank := j.CompiledPredicates(snap.Schema())
				for _, v := range vals {
					ok, _ := req.EvalBool(v)
					if ok {
						_, _ = rank.EvalNumber(v)
						evals++
					}
					evals++
				}
			}
		}
		elapsed = time.Since(t0)
	})
	return float64(elapsed.Nanoseconds()) / float64(max(evals, 1))
}

// isoTrace times the invariant check and the JSONL export of a traced
// run's event log.
func isoTrace(events []trace.Event) (checkNs, exportNs float64, violations []trace.Violation, err error) {
	if len(events) == 0 {
		return 0, 0, nil, fmt.Errorf("iso trace: empty event log")
	}
	quiet(func() {
		t0 := time.Now()
		violations = trace.CheckComplete(events)
		checkNs = float64(time.Since(t0).Nanoseconds()) / float64(len(events))
		t0 = time.Now()
		err = trace.WriteJSONL(io.Discard, []trace.Trace{{Label: "bench", Events: events}})
		exportNs = float64(time.Since(t0).Nanoseconds()) / float64(len(events))
	})
	return checkNs, exportNs, violations, err
}
