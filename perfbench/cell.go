package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/experiments"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	cbmetrics "crossbroker/internal/metrics"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
	"crossbroker/internal/workload"
)

// spec is one workload's shape. Inputs are generated from it and the
// run's seed; the program sees only the generated archive and JDL text.
// BENCHMARK.json and README.md record why each workload was chosen.
type spec struct {
	name  string
	jobs  int           // synthetic archive records
	span  time.Duration // archive span the arrivals spread over
	sites int
	nodes int
	// publish is the sites' republish interval (0: the site default,
	// 2 min).
	publish time.Duration
	// shards > 0 selects a sharded registry with per-shard delta logs
	// of depth deltaLog, matched through Config.Incremental.
	shards, deltaLog int
	// jdl makes every job a generated JDL text with its own
	// Requirements and Rank, parsed at arrival.
	jdl bool
}

var specs = []spec{
	{
		name: "replay-day",
		jobs: 100000, span: 24 * time.Hour,
		// The archive targets ~69% utilization of 8 sites x 16 nodes
		// per 10k jobs a day; the grid scales with the job count as
		// gridbench -exp replay -synth does.
		sites: 80, nodes: 16,
	},
	{
		name: "replay-wide",
		jobs: 20000, span: 24 * time.Hour,
		sites: 800, nodes: 4,
	},
	{
		name: "jdl-churn",
		jobs: 8000, span: 8 * time.Hour,
		sites: 100, nodes: 4,
		publish: 30 * time.Second,
		// The registry the program itself runs delta-subscription
		// matching on: the delta cells of experiments.ChaosSweep build
		// 4 shards with 64-deep delta logs.
		shards: 4, deltaLog: 64,
		jdl: true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs are a workload's generated inputs. Generating them is input
// preparation and is never timed.
type inputs struct {
	archive   []byte           // SWF text from workload.WriteSynthSWF
	jobs      int              // jobs the archive streams
	texts     []string         // jdl-churn: one JDL text per job ordinal
	siteAttrs []map[string]any // jdl-churn: published attributes per site
}

func makeInputs(sp spec, seed int64) (*inputs, error) {
	var buf bytes.Buffer
	if err := workload.WriteSynthSWF(&buf, workload.SynthConfig{Jobs: sp.jobs, Span: sp.span, Seed: seed}); err != nil {
		return nil, err
	}
	in := &inputs{archive: buf.Bytes()}
	rng := rand.New(rand.NewSource(seed ^ 0x6a646c))
	if sp.jdl {
		// The grid is part of the workload's shape, not drawn from the
		// seed: one site in four is i686 and memory spreads evenly over
		// 512..4096 MB. Drawn attributes would let the makeup of a
		// 100-site grid, and with it every metric, swing from seed to
		// seed; the seed drives the jobs instead.
		for i := 0; i < sp.sites; i++ {
			arch := "x86_64"
			if i%4 == 3 {
				arch = "i686"
			}
			in.siteAttrs = append(in.siteAttrs, map[string]any{
				"Arch":     arch,
				"OS":       "linux",
				"MemoryMB": 512 * (1 + (i/4)%8),
			})
		}
	}
	stream, err := openStream(in.archive)
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	for ; ; in.jobs++ {
		j, _, ok := stream.Next()
		if !ok {
			break
		}
		if sp.jdl {
			in.texts = append(in.texts, jobText(in.jobs, j, sp.nodes, rng))
		}
	}
	return in, stream.Err()
}

// jobText renders job i as JDL. Every job gets its own Requirements
// (an arch and a memory threshold) and its own Rank (the divisor is
// unique per job), so no two jobs share a predicate shape.
func jobText(i int, j workload.Job, maxNodes int, rng *rand.Rand) string {
	nodes := clampNodes(j.Nodes, maxNodes)
	arch := "x86_64"
	if rng.Intn(5) == 0 {
		arch = "i686"
	}
	mem := 512 * (1 + rng.Intn(4))
	var b strings.Builder
	if j.Kind == workload.InteractiveJob {
		fmt.Fprintf(&b, "Executable = \"iapp-%d\";\n", i)
		if nodes > 1 {
			b.WriteString("JobType = {\"interactive\", \"mpich-p4\"};\n")
		} else {
			b.WriteString("JobType = {\"interactive\", \"sequential\"};\n")
		}
		fmt.Fprintf(&b, "MachineAccess = \"shared\";\nPerformanceLoss = %d;\n", j.PerformanceLoss)
	} else {
		fmt.Fprintf(&b, "Executable = \"bapp-%d\";\n", i)
		if nodes > 1 {
			b.WriteString("JobType = {\"batch\", \"mpich-p4\"};\n")
		} else {
			b.WriteString("JobType = \"batch\";\n")
		}
	}
	fmt.Fprintf(&b, "NodeNumber = %d;\n", nodes)
	fmt.Fprintf(&b, "Requirements = other.Arch == \"%s\" && other.MemoryMB >= %d;\n", arch, mem)
	fmt.Fprintf(&b, "Rank = other.FreeCPUs * %d - other.QueuedJobs * %d + other.MemoryMB / %d.0;\n",
		1+rng.Intn(9), 1+rng.Intn(4), 1000+i)
	return b.String()
}

func clampNodes(n, max int) int {
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return n
}

func openStream(archive []byte) (*workload.StreamReplay, error) {
	tr := workload.NewTraceReader(bytes.NewReader(archive), workload.FormatSWF, workload.TraceReaderOptions{})
	return workload.NewStreamReplay(tr, workload.ReplayConfig{Speedup: 1})
}

// grid is one workload's simulated grid: the event engine, the
// registry, the broker and its sites.
type grid struct {
	sim   *simclock.Sim
	info  *infosys.Service
	b     *broker.Broker
	tr    *trace.Tracer
	sites []*site.Site
}

// buildGrid constructs the grid exactly as experiments.ReplaySweep
// builds one replay cell (same registry latency, recovery settings,
// site names and cost model), so replay outputs are comparable with
// it. rec, when set, puts spanDir between the broker and the registry
// and turns on the program's own event tracer.
func buildGrid(sp spec, in *inputs, seed int64, rec *recorder, publish time.Duration) *grid {
	sim := simclock.NewSim(time.Time{})
	sim.SetEngine(simclock.EngineCallback)
	var info *infosys.Service
	if sp.shards > 0 {
		info = infosys.NewSharded(sim, 500*time.Millisecond, sp.shards)
		info.SetDeltaLog(sp.deltaLog)
	} else {
		info = infosys.New(sim, 500*time.Millisecond)
	}
	var tr *trace.Tracer
	var dir broker.Directory = info
	if rec != nil {
		tr = trace.New(sim.Now)
		info.SetTracer(tr)
		dir = &spanDir{svc: info, rec: rec}
	}
	b := broker.New(broker.Config{
		Sim:              sim,
		Info:             dir,
		Trace:            tr,
		Seed:             seed,
		MaxResubmits:     10,
		RetryInterval:    15 * time.Second,
		RetryBackoff:     2,
		RetryMaxInterval: 4 * time.Minute,
		AgentHeartbeat:   10 * time.Second,
		TopK:             16,
		Incremental:      sp.shards > 0,
	})
	var sites []*site.Site
	for i := 0; i < sp.sites; i++ {
		cfg := site.Config{
			Name:            fmt.Sprintf("s%02d", i),
			Nodes:           sp.nodes,
			Network:         netsim.CampusGrid(),
			Costs:           site.DefaultCosts(),
			LRMCycle:        5 * time.Second,
			PublishInterval: publish,
		}
		if in.siteAttrs != nil {
			cfg.Attrs = in.siteAttrs[i]
		}
		st := site.New(sim, cfg)
		b.RegisterSite(st)
		sites = append(sites, st)
	}
	return &grid{sim: sim, info: info, b: b, tr: tr, sites: sites}
}

// simOut is everything a run computes in virtual time. It is
// deterministic for a seed, so two runs must marshal to the same
// bytes. Point carries the fields experiments.ReplaySweep reports.
type simOut struct {
	Point       experiments.ReplayPoint
	StartupN    int
	StartupMean float64 // seconds
	StartupP50  float64
	StartupP99  float64
	TurnN       int
	TurnP50H    float64 // hours
	TurnP99H    float64
}

func (o simOut) key() string {
	b, _ := json.Marshal(o) // simOut holds only numbers; Marshal cannot fail
	return string(b)
}

// cellRun is one run of a workload from set-up to the last terminal
// job.
type cellRun struct {
	out       simOut
	setup     time.Duration // workload start to the first submission
	host      time.Duration // first submission to every job terminal
	submitted int
	opFailed  int // operations failed, see countFailures
	submitErr error

	totalAlloc, mallocs uint64
	numGC               uint32
	gcCPU, allCPU       float64 // runtime/metrics CPU seconds over the run

	goroutines0, goroutinesMax int
	callback                   bool
	pendingPeak, freeAgentPeak int // sampled per RunFor chunk, traced runs only

	events []trace.Event // traced runs only
	rec    *recorder     // traced runs only
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, all float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

// setupOnce times one set-up alone: registry, sites, RegisterSite and
// opening the stream, as runOnce does before its first submission.
func setupOnce(sp spec, in *inputs, seed int64) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	buildGrid(sp, in, seed, nil, sp.publish)
	stream, err := openStream(in.archive)
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	stream.Close()
	return d, nil
}

// runOnce drives one workload run the way experiments.ReplaySweep
// drives a replay cell: the archive is walked on the virtual clock,
// completions are accounted on each job's Done trigger, and the clock
// advances in 15-minute RunFor chunks until the last submission is
// terminal.
func runOnce(sp spec, in *inputs, seed int64, traced bool) (*cellRun, error) {
	r := &cellRun{}
	runtime.GC()
	r.goroutines0 = runtime.NumGoroutine()
	r.goroutinesMax = r.goroutines0

	t0 := time.Now()
	if traced {
		r.rec = newRecorder()
	}
	rec := r.rec
	g := buildGrid(sp, in, seed, rec, sp.publish)
	stream, err := openStream(in.archive)
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	r.setup = time.Since(t0)
	r.callback = g.sim.Callback()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, all0 := readCPU()

	p := &r.out.Point
	p.Speedup = 1
	var (
		sim        = g.sim
		b          = g.b
		maxRuntime time.Duration
		terminal   int
		drained    bool
		arrived    int
		yielded    int
		startup    = cbmetrics.NewSeries("startup")
		turnaround = cbmetrics.NewSeries("turnaround")
		jdFree     []*jdl.Job
	)
	// Replay descriptions are pooled as in experiments.ReplaySweep;
	// JDL jobs are parsed fresh at arrival.
	newJD := func() *jdl.Job {
		if n := len(jdFree); n > 0 {
			jd := jdFree[n-1]
			jdFree = jdFree[:n-1]
			*jd = jdl.Job{}
			return jd
		}
		return new(jdl.Job)
	}

	arrive := func(j workload.Job) {
		i := arrived
		arrived++
		nodes := clampNodes(j.Nodes, sp.nodes)
		if j.Nodes > sp.nodes {
			p.CappedWidths++
		}
		interactive := j.Kind == workload.InteractiveJob
		var jd *jdl.Job
		if sp.jdl {
			s := rec.begin(lParse, i)
			parsed, err := jdl.ParseJob(in.texts[i])
			rec.end(s)
			if err != nil || parsed.Interactive != interactive || parsed.NodeNumber != nodes {
				r.submitErr = fmt.Errorf("job %d: JDL does not describe the archived job (err %v)", i, err)
				return
			}
			jd = parsed
		} else {
			jd = newJD()
			jd.NodeNumber = nodes
			if nodes > 1 {
				jd.Flavor = jdl.MPICHP4
			}
			if interactive {
				jd.Executable = "iapp"
				jd.Interactive = true
				jd.Access = jdl.SharedAccess
				jd.PerformanceLoss = j.PerformanceLoss
			} else {
				jd.Executable = "bapp"
			}
		}
		if interactive {
			p.Interactive++
		} else {
			p.Batch++
		}
		if j.CPU > maxRuntime {
			maxRuntime = j.CPU
		}
		s := rec.begin(lSubmit, i)
		h, err := b.Submit(broker.Request{Job: jd, User: j.User, CPU: j.CPU})
		rec.end(s)
		if err != nil {
			r.submitErr = err
			return
		}
		p.Submitted++
		h.Done.OnFire(func() {
			terminal++
			p.Resubmissions += h.Resubmissions()
			switch h.State() {
			case broker.Done:
				p.Done++
				if interactive {
					startup.AddDuration(h.Phases.Submission)
					if h.Shared() {
						p.SharedPlacements++
					}
				} else {
					turnaround.AddDuration(h.Turnaround())
				}
			case broker.Failed:
				p.Failed++
			}
			if !sp.jdl {
				jdFree = append(jdFree, jd)
			}
		})
	}

	next := func() (workload.Job, time.Duration, bool) {
		s := rec.begin(lNext, yielded)
		j, d, ok := stream.Next()
		rec.end(s)
		if ok {
			yielded++
		}
		return j, d, ok
	}
	var pump func()
	pump = func() {
		for {
			j, delay, ok := next()
			if !ok {
				drained = true
				if err := stream.Err(); err != nil && r.submitErr == nil {
					r.submitErr = err
				}
				return
			}
			if delay == 0 {
				arrive(j)
				continue
			}
			sim.AfterFunc(delay, func() {
				arrive(j)
				pump()
			})
			return
		}
	}

	const chunk = 15 * time.Minute
	simStart := sim.Now()
	hostStart := time.Now()
	pump()
	for waited := time.Duration(0); r.submitErr == nil; {
		if drained {
			if terminal >= p.Submitted {
				break
			}
			if waited >= maxRuntime+48*time.Hour {
				break
			}
			waited += chunk
		}
		s := rec.begin(lRunFor, -1)
		sim.RunFor(chunk)
		rec.end(s)
		if n := runtime.NumGoroutine(); n > r.goroutinesMax {
			r.goroutinesMax = n
		}
		if traced {
			r.pendingPeak = max(r.pendingPeak, sim.Pending())
			r.freeAgentPeak = max(r.freeAgentPeak, b.FreeAgents())
		}
	}
	r.host = time.Since(hostStart)
	runtime.ReadMemStats(&ms1)
	gc1, all1 := readCPU()
	r.totalAlloc = ms1.TotalAlloc - ms0.TotalAlloc
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.numGC = ms1.NumGC - ms0.NumGC
	r.gcCPU, r.allCPU = gc1-gc0, all1-all0

	p.Pending = p.Submitted - terminal
	p.SimSeconds = sim.Now().Sub(simStart).Seconds()
	if p.SimSeconds > 0 {
		p.SimJobsPerSec = float64(p.Submitted) / p.SimSeconds
	}
	if p.Submitted > 0 {
		p.GoodputPct = 100 * float64(p.Done) / float64(p.Submitted)
	}
	if startup.Len() > 0 {
		s := startup.Summarize()
		p.MeanStartupSec, p.P95StartupSec = s.Mean, s.P95
		r.out.StartupN, r.out.StartupMean = s.N, s.Mean
		r.out.StartupP50, r.out.StartupP99 = s.P50, s.P99
	}
	if turnaround.Len() > 0 {
		s := turnaround.Summarize()
		p.MeanTurnaroundH, p.P95TurnaroundH = s.Mean/3600, s.P95/3600
		r.out.TurnN, r.out.TurnP50H, r.out.TurnP99H = s.N, s.P50/3600, s.P99/3600
	}
	r.submitted = in.jobs
	if traced {
		r.events = g.tr.Events()
	}
	r.countFailures()
	return r, nil
}

// countFailures counts failed operations. An operation is one
// submission; it fails if Submit errors, if the job is lost (done +
// failed + pending differs from submitted) or still pending when the
// run ends, or if the run's engine guard trips. A job that ends Failed
// in the model is an outcome, counted in goodput_pct, not here.
func (r *cellRun) countFailures() {
	p := r.out.Point
	failed := r.submitted - p.Submitted // Submit errors, unparseable JDL, jobs never reached
	if lost := p.Submitted - (p.Done + p.Failed + p.Pending); lost != 0 {
		failed += abs(lost)
	}
	failed += p.Pending
	if !r.callback || r.goroutinesMax > r.goroutines0 {
		// The broker left the callback engine: every operation of the
		// run was measured on the wrong engine.
		failed = r.submitted
	}
	r.opFailed = min(failed, max(r.submitted, 1))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
